package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"shp/internal/core"
	"shp/internal/gen"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// testService builds a small social workload service; budget 0 means no
// migration budget.
func testService(t *testing.T, seed uint64, budget int64) *Service {
	t.Helper()
	g, err := gen.SocialEgoNets(600, 10, 40, 0.85, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, Options{Core: core.Options{K: 8, Direct: true, Seed: seed, MigrationBudget: budget}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewPublishesEpochZero(t *testing.T) {
	s := testService(t, 21, 0)
	ep := s.Current()
	if ep == nil {
		t.Fatal("no epoch published")
	}
	if ep.ID != 0 {
		t.Fatalf("first epoch id = %d", ep.ID)
	}
	if ep.Moved != 0 {
		t.Fatalf("epoch 0 reports %d moved records; there is no previous epoch to move from", ep.Moved)
	}
	if err := ep.Assignment.Validate(ep.K); err != nil {
		t.Fatal(err)
	}
	if Checksum(ep.Assignment) != ep.Checksum {
		t.Fatal("epoch checksum does not match its assignment")
	}
	if ep.Fanout <= 1 {
		t.Fatalf("implausible fanout %v", ep.Fanout)
	}
}

func TestAssignMatchesSnapshot(t *testing.T) {
	s := testService(t, 22, 0)
	ep := s.Current()
	for v := int32(0); v < int32(len(ep.Assignment)); v += 7 {
		b, id, err := s.Assign(v)
		if err != nil {
			t.Fatal(err)
		}
		if b != ep.Assignment[v] || id != ep.ID {
			t.Fatalf("Assign(%d) = (%d, %d), snapshot says (%d, %d)", v, b, id, ep.Assignment[v], ep.ID)
		}
	}
	if _, _, err := s.Assign(int32(len(ep.Assignment))); err == nil {
		t.Fatal("out-of-snapshot vertex should miss")
	}
	if _, _, err := s.Assign(-1); err == nil {
		t.Fatal("negative vertex should miss")
	}
	st := s.Stats()
	if st.LookupErrors != 2 {
		t.Fatalf("LookupErrors = %d, want 2", st.LookupErrors)
	}
	if st.Lookups < 2 {
		t.Fatalf("Lookups = %d", st.Lookups)
	}
}

func TestChurnEpochsAdvanceAndAccount(t *testing.T) {
	const budget = 30
	s := testService(t, 23, budget)
	c, err := s.NewChurn(0.05, 24)
	if err != nil {
		t.Fatal(err)
	}
	var movedTotal int64
	for e := 1; e <= 5; e++ {
		ep, err := s.ChurnEpoch(c)
		if err != nil {
			t.Fatal(err)
		}
		if ep.ID != uint64(e) {
			t.Fatalf("epoch id %d after %d churn cycles", ep.ID, e)
		}
		if ep.Migrated > budget {
			t.Fatalf("epoch %d: Migrated %d over budget %d", e, ep.Migrated, budget)
		}
		if ep.Moved > ep.Migrated {
			t.Fatalf("epoch %d: Moved %d exceeds engine accounting %d", e, ep.Moved, ep.Migrated)
		}
		if err := ep.Assignment.Validate(ep.K); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		movedTotal += ep.Moved
	}
	st := s.Stats()
	if st.Swaps != 6 || st.Epoch != 5 {
		t.Fatalf("Swaps = %d, Epoch = %d after 5 churn cycles", st.Swaps, st.Epoch)
	}
	if st.MovedTotal != movedTotal {
		t.Fatalf("MovedTotal = %d, epochs sum to %d", st.MovedTotal, movedTotal)
	}
}

// TestEpochFanoutMatchesRecount pins that the fanout an epoch publishes —
// read off the session's running count — is the value a recount over every
// hyperedge gives, bit for bit, for epoch 0 and through churned epochs that
// add weighted hyperedges (turning the graph query-weighted mid-stream).
func TestEpochFanoutMatchesRecount(t *testing.T) {
	s := testService(t, 27, 30)
	check := func(ep *Epoch) {
		t.Helper()
		if want := partition.Fanout(s.session.Graph(), ep.Assignment, ep.K); ep.Fanout != want {
			t.Fatalf("epoch %d publishes fanout %v, a recount gives %v", ep.ID, ep.Fanout, want)
		}
	}
	check(s.Current())
	c, err := s.NewChurn(0.05, 28)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 8; e++ {
		d, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if e >= 3 {
			g := s.session.Graph()
			w := hypergraph.NewDelta(g.NumQueries(), g.NumData())
			w.AddWeightedHyperedge(int32(2+e), int32(e), int32(3*e+1), int32(5*e+2))
			if err := s.ApplyDelta(w); err != nil {
				t.Fatal(err)
			}
			// The generator tracks the graph's counts; start a new one.
			if c, err = s.NewChurn(0.05, uint64(30+e)); err != nil {
				t.Fatal(err)
			}
		}
		ep, err := s.Repartition()
		if err != nil {
			t.Fatal(err)
		}
		check(ep)
	}
}

func TestServiceDeterministicAcrossInstances(t *testing.T) {
	run := func() []uint64 {
		s := testService(t, 25, 50)
		c, err := s.NewChurn(0.04, 26)
		if err != nil {
			t.Fatal(err)
		}
		sums := []uint64{s.Current().Checksum}
		for e := 0; e < 3; e++ {
			ep, err := s.ChurnEpoch(c)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, ep.Checksum)
		}
		return sums
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d checksum differs across identical runs: %x vs %x", i, a[i], b[i])
		}
	}
}

// TestConcurrentLookupsAcrossSwaps hammers Assign from several goroutines
// while the main goroutine drives churn epochs through the swap path. Run
// under -race this checks the epoch-publication memory ordering; the
// assertions check the consistency contract: epoch ids never go backwards,
// every bucket is in range for the epoch that served it, and a snapshot
// always matches its own checksum (no torn assignment).
func TestConcurrentLookupsAcrossSwaps(t *testing.T) {
	s := testService(t, 27, 200)
	c, err := s.NewChurn(0.05, 28)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.NewStream(1000, uint64(id))
			last := uint64(0)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := s.Current()
				if ep.ID < last {
					errs <- fmt.Errorf("epoch went backwards: saw %d after %d", ep.ID, last)
					return
				}
				last = ep.ID
				if iter%512 == 0 {
					// Full-snapshot verification: a torn publication
					// cannot reproduce its own checksum.
					if Checksum(ep.Assignment) != ep.Checksum {
						errs <- fmt.Errorf("torn snapshot: epoch %d fails its checksum", ep.ID)
						return
					}
				}
				v := int32(r.Intn(len(ep.Assignment)))
				b, servedBy, err := s.Assign(v)
				if err != nil {
					errs <- err
					return
				}
				if b < 0 || int(b) >= ep.K {
					errs <- fmt.Errorf("bucket %d out of range [0, %d)", b, ep.K)
					return
				}
				if servedBy < ep.ID {
					errs <- fmt.Errorf("lookup served by epoch %d older than observed %d", servedBy, ep.ID)
					return
				}
			}
		}(i)
	}
	epochs := 6
	if testing.Short() {
		epochs = 3
	}
	for e := 0; e < epochs; e++ {
		if _, err := s.ChurnEpoch(c); err != nil {
			close(stop)
			wg.Wait()
			t.Fatal(err)
		}
		// On a loaded single-core machine the churn loop can finish before
		// any reader goroutine is ever scheduled, so the hammer would stop
		// having hammered nothing. Yield until lookups flow between epochs.
		for s.Stats().Lookups == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.Lookups == 0 {
		t.Fatal("hammer made no lookups")
	}
}

func TestRunChurnStopsOnCancel(t *testing.T) {
	s := testService(t, 29, 0)
	c, err := s.NewChurn(0.05, 30)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	swapped := make(chan struct{}, 16)
	done := make(chan error, 1)
	go func() {
		done <- s.RunChurn(ctx, c, time.Millisecond, func(*Epoch) { swapped <- struct{}{} })
	}()
	<-swapped
	cancel()
	if err := <-done; err == nil {
		t.Fatal("RunChurn returned nil after cancellation")
	}
	if s.Current().ID == 0 {
		t.Fatal("background churn never published an epoch")
	}
}
