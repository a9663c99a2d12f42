package gateway_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// heldWorld is a Login service signing with a rolling table that keeps
// keep secrets (§5.5.1), fronted by a gateway.
type heldWorld struct {
	t      *testing.T
	login  *oasis.Service
	signer *cert.RollingSigner
	gw     *gateway.Gateway
	h      http.Handler
	client ids.ClientID
}

func newHeldWorld(t *testing.T, keep int) *heldWorld {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1000, 0))
	signer := cert.NewRollingSigner([]byte("gen0"), 16, keep)
	login, err := oasis.New("Login", clk, nil, oasis.Options{Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(login, gateway.Options{}) // crypto/rand: seqReader is not for sharing
	return &heldWorld{t: t, login: login, signer: signer, gw: gw, h: gw.Handler(),
		client: ids.NewHostAuthority("ely", clk.Now()).NewDomain()}
}

// mint logs user on through the gateway.
func (w *heldWorld) mint(user string) gateway.TokenResponse {
	w.t.Helper()
	var res gateway.TokenResponse
	rec := post(w.t, w.h, "/v1/token", gateway.TokenRequest{
		Client: w.client, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{uid(user), value.Object("Login.host", "ely")},
	}, &res)
	if rec.Code != http.StatusOK {
		w.t.Fatalf("issue: status %d body %s", rec.Code, rec.Body.String())
	}
	return res
}

// recordTrue reports whether a certificate's credential record is
// still true at the store.
func (w *heldWorld) recordTrue(c *cert.RMC) bool {
	st, err := w.login.Store().Lookup(c.CRR)
	return err == nil && st == credrec.True
}

// TestRolledOutTokenIsDropped: a token whose secret has rolled out of
// the table is invalid for good. Introspection answers inactive and
// drops it; revoking it is acknowledged with 200 (RFC 7009 §2.2) and
// drops it. Neither touches its credential record, which may back
// other certificates.
func TestRolledOutTokenIsDropped(t *testing.T) {
	w := newHeldWorld(t, 1)
	a, b := w.mint("alice"), w.mint("bob")
	for _, tok := range []string{a.Token, b.Token} {
		if in := introspect(t, w.h, tok); !in.Active {
			t.Fatal("fresh token inactive")
		}
	}
	w.signer.Roll([]byte("gen1"))

	if in := introspect(t, w.h, a.Token); in.Active {
		t.Fatal("token active after its secret rolled out")
	}
	if n := w.gw.TokenCount(); n != 1 {
		t.Fatalf("%d tokens live after introspecting a rolled-out one, want 1", n)
	}
	var rres gateway.RevokeResponse
	if rec := post(t, w.h, "/v1/revoke", gateway.RevokeRequest{Token: b.Token}, &rres); rec.Code != http.StatusOK || !rres.OK {
		t.Fatalf("revoking a rolled-out token: status %d body %s, want 200", rec.Code, rec.Body.String())
	}
	if n := w.gw.TokenCount(); n != 0 {
		t.Fatalf("%d tokens live after revoking the rolled-out one, want 0", n)
	}
	if !w.recordTrue(a.Cert) || !w.recordTrue(b.Cert) {
		t.Fatal("dropping a rolled-out token invalidated its credential record")
	}
	if in := introspect(t, w.h, w.mint("carol").Token); !in.Active {
		t.Fatal("token minted under the new secret inactive")
	}
}

// TestIntrospectHonoursSecretRetention: a token lives exactly as long
// as the secret it was signed with stays in the table. With two
// secrets kept, a token survives one roll and dies at the second; one
// minted after the first roll survives the second.
func TestIntrospectHonoursSecretRetention(t *testing.T) {
	w := newHeldWorld(t, 2)
	old := w.mint("alice").Token
	if in := introspect(t, w.h, old); !in.Active {
		t.Fatal("fresh token inactive")
	}
	w.signer.Roll([]byte("gen1"))
	if in := introspect(t, w.h, old); !in.Active {
		t.Fatal("token inactive one roll later, with its secret still kept")
	}
	young := w.mint("bob").Token
	w.signer.Roll([]byte("gen2"))
	if in := introspect(t, w.h, old); in.Active {
		t.Fatal("token active two rolls later, its secret rolled out")
	}
	if in := introspect(t, w.h, young); !in.Active {
		t.Fatal("token minted after the first roll inactive after the second")
	}
}

// TestHeldCertificatesStayOutOfVerifyCache is introspect_hot in one
// process: tokens minted, then each introspected again and again. The
// certificates are held, not presented, so the verify cache keeps no
// copy of any of them.
func TestHeldCertificatesStayOutOfVerifyCache(t *testing.T) {
	w := newHeldWorld(t, 2)
	tokens := make([]string, 64)
	for i := range tokens {
		tokens[i] = w.mint(fmt.Sprintf("user%d", i)).Token
	}
	for round := 0; round < 4; round++ {
		for _, tok := range tokens {
			if in := introspect(t, w.h, tok); !in.Active {
				t.Fatalf("round %d: token inactive", round)
			}
		}
	}
	if got := gateway.VerifiedCount(w.login); got != 0 {
		t.Fatalf("verify cache keeps %d verdicts after introspecting %d held certificates, want 0", got, len(tokens))
	}
}

// TestHeldTokensUnderRoll: eight goroutines introspect one token set
// and revoke half of it while another rolls the secret table, so
// first-use checks, re-checks after a roll and memo hits interleave on
// shared tokens. Every secret is kept: a token dies only by its
// revocation. Run under -race -count=10 (make race).
func TestHeldTokensUnderRoll(t *testing.T) {
	const workers, perWorker, rounds, rolls = 8, 2, 40, 30
	w := newHeldWorld(t, rolls+1)
	users := make([]string, 2*workers*perWorker)
	bodies := make([][]byte, len(users))
	for i := range users {
		users[i] = fmt.Sprintf("user%d", i)
		body, err := json.Marshal(gateway.IntrospectRequest{Token: w.mint(users[i]).Token})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
	}
	// Worker g revokes tokens 2(g·perWorker + k), k < perWorker, at
	// half time: the even ones.
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if round == rounds/2 {
					for k := 0; k < perWorker; k++ {
						rec := serve("/v1/revoke", bodies[2*(g*perWorker+k)])
						if rec.Code != http.StatusOK {
							t.Errorf("worker %d: revoke answered %d %s", g, rec.Code, rec.Body.String())
							return
						}
					}
				}
				for i, body := range bodies {
					rec := serve("/v1/introspect", body)
					var in gateway.IntrospectResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &in); err != nil {
						t.Errorf("worker %d: undecodable answer %q: %v", g, rec.Body.String(), err)
						return
					}
					if in.Active && (len(in.Args) != 2 || in.Args[0].S != users[i]) {
						t.Errorf("worker %d: token %d answered for someone else: %s", g, i, rec.Body.String())
						return
					}
					if !in.Active && i%2 == 1 {
						t.Errorf("worker %d: token %d inactive, never revoked, every secret kept", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= rolls; k++ {
			w.signer.Roll([]byte(fmt.Sprintf("gen%d", k)))
		}
	}()
	wg.Wait()
	for i, body := range bodies {
		var in gateway.IntrospectResponse
		if err := json.Unmarshal(serve("/v1/introspect", body).Body.Bytes(), &in); err != nil {
			t.Fatal(err)
		}
		if in.Active != (i%2 == 1) {
			t.Errorf("token %d: active %v after the run, want %v", i, in.Active, i%2 == 1)
		}
	}
	if n := w.gw.TokenCount(); n != len(users)/2 {
		t.Errorf("%d tokens live, want the %d never revoked", n, len(users)/2)
	}
}
