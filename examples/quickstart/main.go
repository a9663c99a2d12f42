// Quickstart: the paper's running example end to end. A Login service
// names users; a Conference service defines Chair and Member roles over
// Login certificates (figure 3.1); the chair elects a member; logging
// off revokes the membership across services (figures 4.6 and 4.8).
package main

import (
	_ "embed"
	"fmt"
	"log"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// The rolefiles live beside this file so `rdlcheck Login.rdl Conf.rdl`
// can analyze the deployed policy as-is.
//
//go:embed Login.rdl
var loginRolefile string

//go:embed Conf.rdl
var confRolefile string

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	net := bus.NewNetwork(clk)

	// The Login service: the bootstrap issuer of §4.12.
	login, err := oasis.New("Login", clk, net, oasis.Options{})
	if err != nil {
		return err
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		return err
	}

	// The Conference service, with the rolefile of figure 3.1.
	conf, err := oasis.New("Conf", clk, net, oasis.Options{})
	if err != nil {
		return err
	}
	if err := conf.AddRolefile("main", confRolefile); err != nil {
		return err
	}
	conf.Groups().AddMember("dm", "staff")

	// Two protection domains on two hosts.
	ely := ids.NewHostAuthority("ely", clk.Now())
	cam := ids.NewHostAuthority("cam", clk.Now())
	jmbProc := ely.NewDomain()
	dmProc := cam.NewDomain()

	logOn := func(c ids.ClientID, user string) (*cert.RMC, error) {
		return login.Enter(oasis.EnterRequest{
			Client: c, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{
				value.Object("Login.userid", user),
				value.Object("Login.host", c.Host),
			},
		})
	}

	// jmb logs on and enters Chair.
	jmbLogin, err := logOn(jmbProc, "jmb")
	if err != nil {
		return err
	}
	chair, err := conf.Enter(oasis.EnterRequest{
		Client: jmbProc, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{jmbLogin},
	})
	if err != nil {
		return err
	}
	fmt.Println("jmb holds:", chair)

	// The chair elects dm: delegation certificate + revocation
	// certificate (figure 4.3), accepted by dm with his login.
	deleg, rev, err := conf.Delegate(oasis.DelegateRequest{
		Client: jmbProc, Rolefile: "main", Role: "Member",
		Args:        []value.Value{value.Object("Login.userid", "dm")},
		ElectorCert: chair,
	})
	if err != nil {
		return err
	}
	dmLogin, err := logOn(dmProc, "dm")
	if err != nil {
		return err
	}
	member, err := conf.EnterDelegated(oasis.EnterRequest{
		Client: dmProc, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{dmLogin}, Delegation: deleg,
	})
	if err != nil {
		return err
	}
	fmt.Println("dm holds: ", member)
	fmt.Println("member valid:", conf.Validate(member, dmProc) == nil)

	// dm logs off; the Modified event crosses from Login to Conf and the
	// membership is revoked — rapid, selective revocation (§4.14).
	if err := login.Exit(dmLogin, dmProc); err != nil {
		return err
	}
	fmt.Println("after logout, member valid:",
		conf.Validate(member, dmProc) == nil)

	// The chair could also have revoked explicitly:
	fmt.Println("revocation certificate held by chair:", rev != nil)

	audit := conf.Vars()
	fmt.Printf("conf audit: issued=%s validated=%s revokedRejects=%s\n",
		audit.Get("issued"), audit.Get("validated"), audit.Get("revoked"))
	return nil
}
