package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"testing"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// startGatewayServer boots a service and its federation gateway exactly
// as run() wires them — same newGateway, real TCP listener — and
// returns the base URL.
func startGatewayServer(t *testing.T, svc *oasis.Service, cfg config) string {
	t.Helper()
	gw := newGateway(svc, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = gw.Serve(ln)
	}()
	t.Cleanup(func() { _ = ln.Close(); <-done })
	return "http://" + ln.Addr().String()
}

func httpPost(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s: undecodable response %q: %v", url, buf.String(), err)
		}
	}
	return resp
}

// TestGatewayAcceptance is the end-to-end check: a token is issued over
// real HTTP against a running oasisd stack, introspects active with the
// right role, and flips inactive after revocation with no restart. The
// deployed gateway sheds nothing on backpressure; the library's 503 is
// covered in internal/gateway (TestBackpressureShedsMutations).
func TestGatewayAcceptance(t *testing.T) {
	clk := clock.Real()
	network := bus.NewNetwork(clk)
	svc, err := oasis.New("Login", clk, network, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddRolefile("main", builtinLoginRolefile); err != nil {
		t.Fatal(err)
	}
	base := startGatewayServer(t, svc, config{httpRate: 1000, httpMaxConns: 16})

	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	var issued gateway.TokenResponse
	resp := httpPost(t, base+"/v1/token", gateway.TokenRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", "dm"),
			value.Object("Login.host", "ely"),
		},
	}, &issued)
	if resp.StatusCode != http.StatusOK || issued.Token == "" {
		t.Fatalf("issue over HTTP: status %d", resp.StatusCode)
	}

	var in gateway.IntrospectResponse
	httpPost(t, base+"/v1/introspect", gateway.IntrospectRequest{Token: issued.Token}, &in)
	if !in.Active || len(in.Roles) == 0 || in.Roles[0] != "LoggedOn" {
		t.Fatalf("introspection: %+v", in)
	}

	// Revocation over HTTP, then introspection flips — no restart.
	var rres gateway.RevokeResponse
	resp = httpPost(t, base+"/v1/revoke", gateway.RevokeRequest{Token: issued.Token}, &rres)
	if resp.StatusCode != http.StatusOK || !rres.OK {
		t.Fatalf("revoke over HTTP: status %d", resp.StatusCode)
	}
	httpPost(t, base+"/v1/introspect", gateway.IntrospectRequest{Token: issued.Token}, &in)
	if in.Active {
		t.Fatal("revoked token still introspects active")
	}
}
