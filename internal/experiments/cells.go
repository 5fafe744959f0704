package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEachCell runs fn(i) for every i in [0, n) on runtime.GOMAXPROCS(0)
// goroutines, which claim indices in increasing order. A sweep's cells are
// independent: each builds its own simulator and rand.Rand from the
// scale's seed and writes only its own slot of a results slice, which the
// caller then merges in index order. The output is therefore the serial
// loop's at any core count.
//
// The error returned is the one of the lowest failing index, as the serial
// loop would return it. Once a cell fails no further index is claimed;
// every lower index was claimed earlier and still runs to completion.
func forEachCell(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
