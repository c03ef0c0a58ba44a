// Package par holds the repo's two concurrency primitives: the worker-count
// normalisation every parallel caller resolves Options.Parallelism through,
// and Each, the one-goroutine-per-index fan-out of coarse units — one BSP
// worker or one transport endpoint.
//
// Nothing finer is provided on purpose: every refinement kernel runs on one
// goroutine (README "Concurrency"), so no decomposition here is part of any
// result.
package par

import (
	"runtime"
	"sync"
)

// Workers normalizes a requested parallelism to [1, GOMAXPROCS]: values <= 0
// mean GOMAXPROCS, and larger requests are capped there, since goroutines
// beyond the cores only add scheduling cost (8 on 2 cores measured 0.70×).
// This is the one place the repo is allowed to read GOMAXPROCS (enforced by
// the shplint nondet-sources analyzer): everywhere else the machine's core
// count must be invisible to what is computed.
func Workers(requested int) int {
	procs := runtime.GOMAXPROCS(0)
	if requested <= 0 || requested > procs {
		return procs
	}
	return requested
}

// Each runs fn(i) once for every i in [0, n) with one goroutine per index
// and waits for all of them; a single index runs inline on the caller.
func Each(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
