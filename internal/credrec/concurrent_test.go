package credrec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// These tests pin down the striped store's concurrency contract (see
// the package comment's lock-order notes); they are meaningful under
// -race and assert the user-visible guarantees directly.

// TestConcurrentAllocAndValidate allocates from many goroutines while
// readers hammer Valid; every reference handed out must be distinct and
// resolve to its own record.
func TestConcurrentAllocAndValidate(t *testing.T) {
	st := NewStore()
	const goroutines, perG = 8, 500
	refs := make([][]Ref, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ref := st.NewFact(True)
				if !st.Valid(ref) {
					t.Error("fresh record invalid")
					return
				}
				refs[g] = append(refs[g], ref)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[Ref]bool)
	for _, rs := range refs {
		for _, r := range rs {
			if seen[r] {
				t.Fatalf("duplicate reference %v handed out", r)
			}
			seen[r] = true
			if !st.Valid(r) {
				t.Fatalf("record %v invalid after the dust settled", r)
			}
		}
	}
	if live := st.Live(); live != goroutines*perG {
		t.Fatalf("live count %d, want %d", live, goroutines*perG)
	}
}

// TestInvalidateVisibleToReaders checks the revocation guarantee the
// engine depends on: once Invalidate returns, every reader — on any
// goroutine — sees the whole dependent subgraph false. Derived records
// are placed several shards away from their parents, so the assertion
// crosses stripe boundaries.
func TestInvalidateVisibleToReaders(t *testing.T) {
	st := NewStore()
	const chains = 64
	roots := make([]Ref, chains)
	leaves := make([]Ref, chains)
	for i := range roots {
		roots[i] = st.NewFact(True)
		ref := roots[i]
		for d := 0; d < 5; d++ {
			ref = st.NewDerived(OpAnd, Of(ref))
		}
		leaves[i] = ref
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					// Reads may race the cascade itself; they must never
					// panic or misread, but truth can be either way.
					st.Valid(leaves[(g*17+i)%chains])
				}
			}
		}(g)
	}
	for i := 0; i < chains; i++ {
		if err := st.Invalidate(roots[i]); err != nil {
			t.Fatal(err)
		}
		// The cascade completed before Invalidate returned.
		if st.Valid(leaves[i]) {
			t.Fatalf("leaf %d still valid after its root was invalidated", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestObserverHeardWhenMutationReturns: a mutation hands the observer
// its own changes before it returns, so a sweeper that takes the
// store's lock as often as it can never delivers them late. A store
// whose mutations drained whatever was queued let the sweeper take a
// batch and the mutation return before the observer ran; on a sharded
// store the same theft delayed a cross-shard cascade.
func TestObserverHeardWhenMutationReturns(t *testing.T) {
	st := NewStore()
	ref := st.NewFact(True)
	_ = st.MarkNotify(ref)
	var heard atomic.Int64
	st.OnChange(func(cs []Change) { heard.Add(int64(len(cs))) })
	sweepBeside(t, st)
	for i := 1; i <= 100000; i++ {
		_ = st.SetState(ref, [...]State{True, False}[i%2])
		if got := heard.Load(); got != int64(i) {
			t.Fatalf("%d mutations returned, the observer heard of %d", i, got)
		}
	}
}

// sweepBeside sweeps rec on another goroutine, without pause, until
// the test ends.
func sweepBeside(t *testing.T, rec Recorder) {
	stop, swept := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
				rec.Sweep()
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-swept })
}

// TestConcurrentSetStateChurn flips independent leaves from many
// goroutines while readers watch derived children; after the churn
// stops, every child must agree with its leaf's final state.
func TestConcurrentSetStateChurn(t *testing.T) {
	st := NewStore()
	const leaves = 32
	leaf := make([]Ref, leaves)
	child := make([]Ref, leaves)
	for i := range leaf {
		leaf[i] = st.NewFact(True)
		child[i] = st.NewDerived(OpAnd, Of(leaf[i]))
	}
	var wg sync.WaitGroup
	final := make([]State, leaves)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				n := (g*leaves/8 + i) % leaves
				s := True
				if i%2 == 1 {
					s = False
				}
				if err := st.SetState(leaf[n], s); err != nil {
					t.Errorf("SetState: %v", err)
					return
				}
				st.Valid(child[n])
			}
		}(g)
	}
	wg.Wait()
	for i := range leaf {
		ls, err := st.Lookup(leaf[i])
		if err != nil {
			t.Fatal(err)
		}
		final[i] = ls
		cs, err := st.Lookup(child[i])
		if err != nil {
			t.Fatal(err)
		}
		if cs != ls {
			t.Fatalf("child %d is %v but its only parent is %v", i, cs, ls)
		}
	}
}

// TestGroupsConcurrent churns membership on one set of groups while
// readers test another; the interesting-credential records must track
// the final membership.
func TestGroupsConcurrent(t *testing.T) {
	st := NewStore()
	g := NewGroups(st)
	const users = 16
	creds := make([]Ref, users)
	for i := 0; i < users; i++ {
		g.AddMember(user(i), "staff")
		creds[i] = g.CredentialFor(user(i), "staff")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				u := user((w + i) % users)
				switch i % 3 {
				case 0:
					g.RemoveMember(u, "staff")
				case 1:
					g.AddMember(u, "staff")
				default:
					g.IsMember(u, "staff")
					st.Valid(creds[(w+i)%users])
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < users; i++ {
		g.AddMember(user(i), "staff") // settle everyone in
		if !g.IsMember(user(i), "staff") {
			t.Fatalf("user %d lost after churn", i)
		}
		if !st.Valid(creds[i]) {
			t.Fatalf("membership credential %d false after final AddMember", i)
		}
	}
}

func user(i int) string { return fmt.Sprintf("u%d", i) }
