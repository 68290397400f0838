package sim

import (
	"runtime"
	"sync"
)

// RunParallel executes n independent bodies across at most workers
// goroutines and returns when all have finished. Each body receives its
// index and must share nothing with the others. workers <= 0 selects
// GOMAXPROCS. The zero-allocation sequential case (workers == 1, or
// n == 1) runs inline.
//
// This is the only concurrency primitive in the package, used at two
// levels: across independent timelines (parameter sweeps, seed
// replications), each with its own Kernel, and inside one timeline, where
// a Kernel runs its regions' windows through it. A one-region timeline is
// always single-threaded.
func RunParallel(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				body(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
