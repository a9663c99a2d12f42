package oasis

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/credrec"
)

func wantRevoked(t *testing.T, err error, context string) {
	t.Helper()
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Class != Revoked {
		t.Fatalf("%s: want Revoked, got %v", context, err)
	}
}

func TestSuspicionEscalation(t *testing.T) {
	// §6.8.4: silence degrades a watched source in two steps — Suspect
	// (records Unknown) after 1.5 heartbeat periods, Failed (records
	// fail safe to False) after FailsafeMissed periods. Recovery only
	// through an explicit ResyncSource when AutoResync is off.
	var transitions []string
	h := newHarnessWith(t, Options{}, Options{
		HeartbeatEvery: 5 * time.Second,
		FailsafeMissed: 3,
		OnSourceState: func(src string, from, to SourceState) {
			transitions = append(transitions, fmt.Sprintf("%s:%s->%s", src, from, to))
		},
	})
	_, _, member, _ := enterConfMemberOn(t, h)
	cand := member.Client

	// Heartbeats flowing: the source stays alive.
	h.login.HeartbeatTick()
	h.clk.Advance(2 * time.Second)
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("status with heartbeats flowing = %v", st)
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatal(err)
	}

	// One missed heartbeat plus slack: Suspect, validation fails safe.
	h.links.Sever("Login", "Conf")
	h.clk.Advance(6 * time.Second) // 8s of silence > 7.5s
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceSuspect {
		t.Fatalf("status after 8s silence = %v", st)
	}
	wantRevoked(t, h.conf.Validate(member, cand), "validate while suspect")

	// Past the fail-safe budget: Failed, records pinned False.
	h.clk.Advance(10 * time.Second) // 18s of silence > 3x5s
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceFailed {
		t.Fatalf("status after 18s silence = %v", st)
	}
	wantRevoked(t, h.conf.Validate(member, cand), "validate while failed")

	// Heartbeats resume, but without AutoResync the lost notifications
	// cannot be trusted away: the source stays degraded until ResyncSource.
	h.links.Restore("Login", "Conf")
	h.login.HeartbeatTick()
	if st := h.conf.SourceStatus("Login"); st != SourceFailed {
		t.Fatalf("status healed on heartbeat alone = %v", st)
	}
	wantRevoked(t, h.conf.Validate(member, cand), "validate before resync")

	if err := h.conf.ResyncSource("Login"); err != nil {
		t.Fatal(err)
	}
	if st := h.conf.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("status after reconnect = %v", st)
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatalf("membership not restored by resync: %v", err)
	}

	want := []string{"Login:alive->suspect", "Login:suspect->failed", "Login:failed->alive"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

// TestHeartbeatPeriodTradeoff is E26 (§4.10, §6.8.3) on the detector
// oasisd runs: StartDuties at the issuer and at the watcher, one
// period's work of it (dutyTick: the heartbeat, then suspicion) driven here
// on the virtual clock every heartbeat period t. The period buys
// detection latency with background traffic, and both sides of the
// trade are fixed by the machinery, not by the run:
//
// Traffic. One heartbeat per watching service per period, whatever the
// number of watched records: 3600 s / t an hour.
//
// Latency. Heartbeats leave at 0, t, 2t, … and a suspicion tick runs
// at the same instants. The link is cut at P, so the last heartbeat to
// cross left at L with P − t ≤ L < P, and its horizon is L. The tick at
// L + t sees t of silence, short of SuspicionTick's 1.5 t: one late
// heartbeat is not a failure. The tick at L + 2t sees 2t ≥ 1.5 t: the
// source turns suspect, its records Unknown, and validation fails from
// that tick on. The stale certificate therefore stops validating
// L + 2t − P after the cut — at least t (taking L = P − t) and less
// than 2t (L < P). With P = 60 s that is exactly t for the periods that
// divide P and 1.5 t for t = 2 m (L = 0). A threshold of 3 t would put
// it at 2t or more, a threshold of t at less than t; either fails here.
func TestHeartbeatPeriodTradeoff(t *testing.T) {
	for _, period := range []time.Duration{time.Second, 5 * time.Second, 30 * time.Second, 2 * time.Minute} {
		t.Run(period.String(), func(t *testing.T) {
			h := newHarnessWith(t, Options{HeartbeatEvery: period}, Options{HeartbeatEvery: period})
			_, _, member, _ := enterConfMemberOn(t, h)
			start := h.clk.Now()
			cut := start.Add(time.Minute)
			sentBefore := h.net.Count("heartbeat")
			var detected time.Time
			for now := start; now.Before(start.Add(time.Hour)); now = h.clk.Now() {
				if !now.Before(cut) {
					h.links.Sever("Login", "Conf")
				}
				h.login.dutyTick()
				h.conf.dutyTick()
				if err := h.conf.Validate(member, member.Client); err == nil {
					if !detected.IsZero() {
						t.Fatalf("stale certificate validates again at +%v", now.Sub(start))
					}
				} else if detected.IsZero() {
					wantRevoked(t, err, "validate after the cut")
					detected = now
				}
				h.clk.Advance(period)
			}
			if detected.IsZero() {
				t.Fatal("partition never detected")
			}
			latency, beats := detected.Sub(cut), h.net.Count("heartbeat")-sentBefore
			t.Logf("t = %v: refused %v after the cut, %d heartbeats an hour", period, latency, beats)
			if latency < period || latency >= 2*period {
				t.Fatalf("stale certificate refused %v after the cut, want within [%v, %v)", latency, period, 2*period)
			}
			if want := int(time.Hour / period); beats != want {
				t.Fatalf("%d heartbeats sent in a simulated hour, want %d", beats, want)
			}
		})
	}
}

func TestAutoResyncOnRevive(t *testing.T) {
	// With AutoResync the first heartbeat after a heal triggers the
	// resync: no explicit ResyncSource call is needed.
	h := newHarnessWith(t, Options{}, Options{
		HeartbeatEvery: 5 * time.Second,
		AutoResync:     true,
	})
	_, _, member, _ := enterConfMemberOn(t, h)
	cand := member.Client

	h.links.Sever("Login", "Conf")
	h.clk.Advance(30 * time.Second)
	h.conf.SuspicionTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceFailed {
		t.Fatalf("status during partition = %v", st)
	}
	wantRevoked(t, h.conf.Validate(member, cand), "validate during partition")

	h.links.Restore("Login", "Conf")
	h.login.HeartbeatTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("status after heal heartbeat = %v", st)
	}
	if err := h.conf.Validate(member, cand); err != nil {
		t.Fatalf("membership not auto-restored: %v", err)
	}
}

func TestAutoResyncPreservesRevocation(t *testing.T) {
	// A logout during the partition must survive the auto-resync: the
	// record comes back permanently False, not True.
	h := newHarnessWith(t, Options{}, Options{
		HeartbeatEvery: 5 * time.Second,
		AutoResync:     true,
	})
	_, candLogin, member, _ := enterConfMemberOn(t, h)
	cand := member.Client

	h.links.Sever("Login", "Conf")
	if err := h.login.Exit(candLogin, cand); err != nil {
		t.Fatal(err)
	}
	h.clk.Advance(30 * time.Second)
	h.conf.SuspicionTick()
	h.conf.settle()

	h.links.Restore("Login", "Conf")
	h.login.HeartbeatTick()
	h.conf.settle()
	if st := h.conf.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("status after heal = %v", st)
	}
	wantRevoked(t, h.conf.Validate(member, cand), "validate after resync of revoked record")
}

func TestNotificationGapFailsSafe(t *testing.T) {
	// A sequence gap proves a notification was lost — possibly the
	// revocation itself. The source's records fail safe immediately,
	// and with AutoResync the truth is fetched in the same breath.
	h := newHarnessWith(t, Options{}, Options{
		HeartbeatEvery: 5 * time.Second,
		AutoResync:     true,
	})
	_, candLogin, member, _ := enterConfMemberOn(t, h)
	cand := member.Client

	// A heartbeat establishes the stream's high-water mark; only a
	// stream that has delivered before can expose a gap.
	h.login.HeartbeatTick()

	// The revocation notification is lost on the failed link (the
	// broker still consumes its sequence number).
	h.links.Sever("Login", "Conf")
	if err := h.login.Exit(candLogin, cand); err != nil {
		t.Fatal(err)
	}
	h.links.Restore("Login", "Conf")

	// The next heartbeat exposes the gap; the resync closes it.
	h.login.HeartbeatTick()
	h.conf.settle()
	wantRevoked(t, h.conf.Validate(member, cand), "validate after gap resync")
	if st := h.conf.SourceStatus("Login"); st != SourceAlive {
		t.Fatalf("status after gap resync = %v", st)
	}
}

func TestResyncOpDirectly(t *testing.T) {
	h, candLogin, _, _ := enterConfMember(t)

	res, err := h.net.Call("Conf", "Login", "resync", ResyncArg{Refs: []credrec.Ref{candLogin.CRR}})
	if err != nil {
		t.Fatal(err)
	}
	reply := res.(ResyncReply)
	if reply.Session == 0 {
		t.Fatal("no session reported for a watching peer")
	}
	if len(reply.Entries) != 1 || reply.Entries[0].State != credrec.True || reply.Entries[0].Permanent {
		t.Fatalf("entries = %+v", reply.Entries)
	}

	// After logout the same record resolves permanently False, and a
	// dangling reference does too.
	if err := h.login.Exit(candLogin, candLogin.Client); err != nil {
		t.Fatal(err)
	}
	res, err = h.net.Call("Conf", "Login", "resync", ResyncArg{
		Refs: []credrec.Ref{candLogin.CRR, credrec.RefFromUint64(1<<40 | 99)},
	})
	if err != nil {
		t.Fatal(err)
	}
	reply = res.(ResyncReply)
	if len(reply.Entries) != 2 {
		t.Fatalf("entries = %+v", reply.Entries)
	}
	for i, e := range reply.Entries {
		if e.State != credrec.False || !e.Permanent {
			t.Fatalf("entry %d = %+v, want permanent False", i, e)
		}
	}
	if _, err := h.net.Call("Conf", "Login", "resync", 42); err == nil {
		t.Fatal("bad resync arg accepted")
	}
}

// deadDisk is a journal sink whose every write fails once dead is set.
type deadDisk struct {
	mu   sync.Mutex
	dead bool
}

func (d *deadDisk) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead {
		return 0, errors.New("disk gone")
	}
	return len(p), nil
}

func (d *deadDisk) Sync() error { return nil }

// TestFailStoppedWatcherHonoursRevocation: a watcher whose journal has
// failed refuses its own mutations, yet what says a remote credential
// is dead still reaches its memory, and the Member certificate derived
// from that credential stops validating. The word comes from the
// issuer, a logout's Modified event, or from the failure detector,
// silence past the suspect and the fail-safe budgets. Both are read
// back from the issuer at restart, so neither needs the disk.
func TestFailStoppedWatcherHonoursRevocation(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(t *testing.T, h *harness, candLogin *cert.RMC, validate func() error)
	}{
		{"logout", func(t *testing.T, h *harness, candLogin *cert.RMC, validate func() error) {
			if err := h.login.Exit(candLogin, candLogin.Client); err != nil {
				t.Fatal(err)
			}
			wantRevoked(t, validate(), "validate after the logout")
		}},
		{"silence", func(t *testing.T, h *harness, _ *cert.RMC, validate func() error) {
			h.links.Sever("Login", "Conf")
			for _, step := range []struct {
				after time.Duration
				want  SourceState
			}{{8 * time.Second, SourceSuspect}, {10 * time.Second, SourceFailed}} {
				h.clk.Advance(step.after)
				h.conf.SuspicionTick()
				h.conf.settle()
				if st := h.conf.SourceStatus("Login"); st != step.want {
					t.Fatalf("status = %v, want %v", st, step.want)
				}
				wantRevoked(t, validate(), "validate while "+step.want.String())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := &deadDisk{}
			store := credrec.NewStore()
			store.StartJournal(disk, credrec.JournalOptions{Sync: credrec.SyncAlways})
			defer store.Close()
			h := newHarnessWith(t, Options{}, Options{Store: store, HeartbeatEvery: 5 * time.Second, FailsafeMissed: 3})
			_, candLogin, member, _ := enterConfMemberOn(t, h)
			validate := func() error { return h.conf.Validate(member, member.Client) }

			disk.mu.Lock()
			disk.dead = true
			disk.mu.Unlock()
			if ref := store.NewFact(credrec.True); ref != (credrec.Ref{}) {
				t.Fatalf("allocation on a dying journal returned %v", ref)
			}
			if err := store.Sync(); err == nil {
				t.Fatal("the journal reports no error")
			}
			if err := store.SetState(member.CRR, credrec.False); err == nil {
				t.Fatal("a fail-stopped store took SetState")
			}
			if err := validate(); err != nil {
				t.Fatalf("a dead journal alone revoked the membership: %v", err)
			}
			tc.kill(t, h, candLogin, validate)
		})
	}
}
