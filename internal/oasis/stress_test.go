package oasis

import (
	"errors"
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// stressService builds a standalone service with a rolling signer and
// two directly-issued certificates: one that stays valid for the whole
// test and one destined for revocation.
func stressService(t *testing.T) (*Service, *cert.RollingSigner, ids.ClientID, *cert.RMC, *cert.RMC) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	signer := cert.NewRollingSigner([]byte("gen0"), 16, 10)
	svc, err := New("S", clk, nil, Options{Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddRolefile("main", `
def R(u) u: S.userid
R(u) <-
`); err != nil {
		t.Fatal(err)
	}
	client := ids.NewHostAuthority("h", clk.Now()).NewDomain()
	stable, err := svc.IssueDirect(client, "main", "R", []value.Value{value.Object("S.userid", "stable")})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := svc.IssueDirect(client, "main", "R", []value.Value{value.Object("S.userid", "victim")})
	if err != nil {
		t.Fatal(err)
	}
	return svc, signer, client, stable, victim
}

func classOf(t *testing.T, err error) FailureClass {
	t.Helper()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Errorf("validation failed with non-ValidationError %v", err)
		return 0
	}
	return ve.Class
}

// TestConcurrentValidateRevokeRoll is the engine's torn-state check: G
// goroutines validate continuously while one goroutine revokes the
// victim certificate and another rolls the signer secret (§5.5.1). The
// stable certificate must never fail; the victim must fail only with
// class Revoked, and — revocation being permanent — once a goroutine
// sees it revoked it must never see it valid again. Run under -race.
func TestConcurrentValidateRevokeRoll(t *testing.T) {
	svc, signer, client, stable, victim := stressService(t)

	const validators = 8
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		revoked atomic.Bool // set after RevokeDirect returns
	)
	for g := 0; g < validators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sawRevoked := false
			for i := 0; !stop.Load(); i++ {
				if err := svc.Validate(stable, client); err != nil {
					t.Errorf("stable certificate rejected: %v", err)
					return
				}
				// Sample the acknowledgement before validating: only a
				// validation that *started* after RevokeDirect returned
				// is required to see the revocation. Loading afterwards
				// would flag lookups that raced ahead of the revoke.
				wasRevoked := revoked.Load()
				err := svc.Validate(victim, client)
				switch {
				case err == nil:
					if sawRevoked {
						t.Error("victim validated after being seen revoked (torn state)")
						return
					}
					if wasRevoked {
						t.Error("victim validated after RevokeDirect returned")
						return
					}
				default:
					if c := classOf(t, err); c != Revoked {
						t.Errorf("victim rejected with class %v, want revoked", c)
						return
					}
					sawRevoked = true
				}
			}
		}()
	}

	// Roll the secret table while validations are in flight; fewer
	// rolls than the retention limit, so gen0 signatures stay valid.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 8; i++ {
			signer.Roll([]byte(fmt.Sprintf("gen%d", i)))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Millisecond)
		if err := svc.RevokeDirect(victim); err != nil {
			t.Errorf("revoke: %v", err)
		}
		revoked.Store(true)
		time.Sleep(time.Millisecond)
		stop.Store(true)
	}()

	wg.Wait()
	if err := svc.Validate(stable, client); err != nil {
		t.Fatalf("stable certificate invalid after stress: %v", err)
	}
	err := svc.Validate(victim, client)
	if err == nil {
		t.Fatal("victim still validates after revocation")
	}
	if c := classOf(t, err); c != Revoked {
		t.Fatalf("victim rejected with class %v, want revoked", c)
	}
	if g := signer.Generations(); g != 9 {
		t.Fatalf("signer retains %d generations, want 9", g)
	}
}

// TestAuditCountersConcurrent is the regression test for the seed's
// audit data race: a snapshot used to copy the counter struct while
// Validate/Issue incremented it under a different code path. With
// atomic counters (expvar Ints in the service's Vars) they may be read
// at any time and the totals must come out exact. Run under -race.
// audit is the §4.13 audit counters as read from a service's Vars.
type audit struct{ issued, validated, fraud, erroneous, revoked int64 }

func auditOf(svc *Service) audit {
	get := func(k string) int64 { return svc.Vars().Get(k).(*expvar.Int).Value() }
	return audit{get("issued"), get("validated"), get("fraud"), get("erroneous"), get("revoked")}
}

func (a audit) minus(b audit) audit {
	return audit{a.issued - b.issued, a.validated - b.validated, a.fraud - b.fraud,
		a.erroneous - b.erroneous, a.revoked - b.revoked}
}

func TestAuditCountersConcurrent(t *testing.T) {
	svc, _, client, stable, _ := stressService(t)
	before := auditOf(svc)

	const goroutines, perG = 8, 200
	var workers sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent snapshot reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				snap := auditOf(svc)
				if snap.validated > goroutines*perG+before.validated {
					t.Error("snapshot overshot the possible validation count")
					return
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < perG; i++ {
				if err := svc.Validate(stable, client); err != nil {
					t.Errorf("validate: %v", err)
					return
				}
				// A fraud attempt: certificate presented by the wrong
				// client; exercises the failure counters concurrently.
				bogus := ids.NewHostAuthority(fmt.Sprintf("x%d", g), time.Unix(0, 0)).NewDomain()
				if err := svc.Validate(stable, bogus); err == nil {
					t.Error("stolen certificate accepted")
					return
				}
			}
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			if _, err := svc.IssueDirect(client, "main", "R",
				[]value.Value{value.Object("S.userid", fmt.Sprintf("u%d", g))}); err != nil {
				t.Errorf("issue: %v", err)
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	<-readerDone

	after := auditOf(svc)
	if got := after.validated - before.validated; got != goroutines*perG {
		t.Fatalf("validated count %d, want %d", got, goroutines*perG)
	}
	if got := after.fraud - before.fraud; got != goroutines*perG {
		t.Fatalf("fraud count %d, want %d", got, goroutines*perG)
	}
	if got := after.issued - before.issued; got != goroutines {
		t.Fatalf("issued count %d, want %d", got, goroutines)
	}
}
