package core

import (
	"math"
	"reflect"
	"testing"

	"shp/internal/gen"
	"shp/internal/partition"
)

// The migration-budget contract: every Repartition epoch ends with at most
// MigrationBudget records off the assignment the epoch started from — an
// exact invariant, not a soft penalty — with MigrationFrozen pinning the
// assignment outright and a budget of MaxInt64 reproducing the unbudgeted
// engine byte for byte.

// migrationDiff counts vertices (over the common prefix) whose bucket
// differs between two assignments — the serving-plane "records copied"
// metric the budget bounds. Vertices entering the epoch Unassigned are
// skipped: placing a brand-new record is not a migration (nothing is copied),
// matching the engine's documented placement exemption.
func migrationDiff(before, after partition.Assignment) int64 {
	n := len(before)
	if len(after) < n {
		n = len(after)
	}
	var moved int64
	for i := 0; i < n; i++ {
		if before[i] != partition.Unassigned && before[i] != after[i] {
			moved++
		}
	}
	return moved
}

// churnEpochs drives a session through epochs of generated churn, calling
// check with the epoch's starting assignment (including this epoch's new
// vertices as Unassigned) and its result.
func churnEpochs(t *testing.T, s *Session, c *gen.Churn, epochs int, check func(epoch int, before partition.Assignment, res *Result)) {
	t.Helper()
	for epoch := 0; epoch < epochs; epoch++ {
		d, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
		before := s.Assignment()
		res, err := s.Repartition()
		if err != nil {
			t.Fatal(err)
		}
		check(epoch, before, res)
	}
}

func TestMigrationBudgetExact(t *testing.T) {
	const budget = 25
	g := randomBipartite(t, 71, 900, 3000, 13000)
	s, err := NewSession(g, Options{K: 8, Direct: true, Seed: 3, MigrationBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.NewChurn(g, 0.05, 17)
	if err != nil {
		t.Fatal(err)
	}
	bound := false
	churnEpochs(t, s, c, 6, func(epoch int, before partition.Assignment, res *Result) {
		moved := migrationDiff(before, res.Assignment)
		if moved > budget {
			t.Fatalf("epoch %d: %d records moved, budget is %d", epoch, moved, budget)
		}
		if res.Migrated > budget {
			t.Fatalf("epoch %d: Result.Migrated = %d, budget is %d", epoch, res.Migrated, budget)
		}
		// Migrated charges budget for refining a just-placed new vertex away
		// from its placement spot; the visible diff skips new vertices
		// entirely (no data is copied for a record that was never served).
		// The engine's count is therefore an upper bound on the diff.
		if moved > res.Migrated {
			t.Fatalf("epoch %d: assignment diff %d exceeds Result.Migrated %d", epoch, moved, res.Migrated)
		}
		if res.Migrated == budget {
			bound = true
		}
		if err := res.Assignment.Validate(8); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	})
	// At 5% churn a 25-record budget must actually bind — otherwise this
	// test exercises nothing.
	if !bound {
		t.Fatal("budget never bound: the invariant was not exercised")
	}
}

func TestMigrationBudgetFrozen(t *testing.T) {
	g := randomBipartite(t, 72, 700, 2500, 10000)
	s, err := NewSession(g, Options{K: 6, Direct: true, Seed: 5, MigrationBudget: MigrationFrozen})
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.NewChurn(g, 0.04, 19)
	if err != nil {
		t.Fatal(err)
	}
	churnEpochs(t, s, c, 4, func(epoch int, before partition.Assignment, res *Result) {
		// Every pre-existing, already-placed vertex keeps its bucket; only
		// vertices that entered this epoch Unassigned get one.
		for v := range before {
			if before[v] == partition.Unassigned {
				if res.Assignment[v] < 0 {
					t.Fatalf("epoch %d: new vertex %d left unplaced", epoch, v)
				}
				continue
			}
			if res.Assignment[v] != before[v] {
				t.Fatalf("epoch %d: frozen assignment moved vertex %d (%d -> %d)",
					epoch, v, before[v], res.Assignment[v])
			}
		}
		if res.Migrated != 0 {
			t.Fatalf("epoch %d: frozen epoch reports %d migrated records", epoch, res.Migrated)
		}
	})
}

func TestMigrationBudgetUnlimitedByteIdentical(t *testing.T) {
	// An effectively infinite budget must reproduce the unbudgeted engine
	// byte for byte: assignments AND histories, across warm epochs.
	g1 := randomBipartite(t, 73, 900, 3000, 13000)
	g2 := g1.Clone()
	s1, err := NewSession(g1, Options{K: 8, Direct: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(g2, Options{K: 8, Direct: true, Seed: 7, MigrationBudget: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := gen.NewChurn(g1, 0.03, 23)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := gen.NewChurn(g2, 0.03, 23)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 4; epoch++ {
		d1, err := c1.Next()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := c2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Apply(d1); err != nil {
			t.Fatal(err)
		}
		if err := s2.Apply(d2); err != nil {
			t.Fatal(err)
		}
		r1, err := s1.Repartition()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Repartition()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1.Assignment, r2.Assignment) {
			t.Fatalf("epoch %d: unlimited budget changed the assignment", epoch)
		}
		if !reflect.DeepEqual(r1.History, r2.History) {
			t.Fatalf("epoch %d: unlimited budget changed the history", epoch)
		}
	}
}

func TestSessionIncrementalMatchesFullWithBudget(t *testing.T) {
	// The budget filter runs on the decided list, downstream of how gains
	// were brought up to date, so the patched default and the rebuilt
	// period-1 reference stay byte-identical with a binding budget.
	s1, s2, c1, c2 := sessionPair(t, Options{K: 8, Direct: true, Seed: 13, MigrationBudget: 40}, 0.04)
	runSessionEpochs(t, s1, s2, c1, c2, 4)
}

func TestMigrationBudgetColdWarmStart(t *testing.T) {
	// One-shot Direct run warm-started from an existing assignment: the
	// budget binds relative to Initial. A perfectly balanced round-robin
	// start keeps the pre-snapshot balance repair (budget-exempt by design)
	// out of the picture, so diff(Initial, result) is exactly the budgeted
	// migration count.
	const budget = 50
	g := randomBipartite(t, 74, 800, 2600, 11000)
	initial := make(partition.Assignment, g.NumData())
	for v := range initial {
		initial[v] = int32(v % 8)
	}
	res, err := Partition(g, Options{
		K: 8, Direct: true, Seed: 11, Initial: initial, MigrationBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := migrationDiff(initial, res.Assignment)
	if moved > budget {
		t.Fatalf("cold warm-start moved %d records, budget is %d", moved, budget)
	}
	if res.Migrated != moved {
		t.Fatalf("Result.Migrated = %d, assignment diff = %d", res.Migrated, moved)
	}
	// Sanity: an unbudgeted run moves far more, so the cap actually cut.
	free, err := Partition(g, Options{K: 8, Direct: true, Seed: 11, Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	if m := migrationDiff(initial, free.Assignment); m <= budget {
		t.Fatalf("unbudgeted run moved only %d records — instance too easy to exercise the budget", m)
	}
}

func TestMigrationBudgetRejectsRecursiveWithInitial(t *testing.T) {
	g := randomBipartite(t, 75, 100, 400, 1500)
	initial := partition.Random(g.NumData(), 4, 1)
	_, err := Partition(g, Options{K: 4, Seed: 1, Initial: initial, MigrationBudget: 10})
	if err == nil {
		t.Fatal("recursive strategy with Initial and MigrationBudget should be rejected")
	}
}
