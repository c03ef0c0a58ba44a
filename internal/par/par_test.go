package par

import (
	"runtime"
	"sync"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ requested, want int }{
		{0, procs}, {-1, procs}, {1, 1}, {procs, procs}, {procs + 1, procs}, {8 * procs, procs},
	} {
		if got := Workers(tc.requested); got != tc.want {
			t.Fatalf("Workers(%d) = %d on %d procs, want %d", tc.requested, got, procs, tc.want)
		}
	}
}

// TestWorkersCapsAtGOMAXPROCS pins the cap on a fixed core count: requests
// past GOMAXPROCS get GOMAXPROCS, requests below it are honoured.
func TestWorkersCapsAtGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for requested, want := range map[int]int{-3: 2, 0: 2, 1: 1, 2: 2, 3: 2, 8: 2} {
		if got := Workers(requested); got != want {
			t.Fatalf("Workers(%d) = %d at GOMAXPROCS 2, want %d", requested, got, want)
		}
	}
}

func TestEachCoversAllIndicesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		var mu sync.Mutex
		seen := make(map[int]int)
		Each(n, func(i int) {
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != n {
			t.Fatalf("n=%d: Each hit %d distinct indices", n, len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}
