package core

import (
	"sync"
	"time"

	"bamboo/internal/stats"
)

// RunResult is the outcome of a parallel run.
type RunResult struct {
	Collectors []*stats.Collector
	Elapsed    time.Duration
	Report     stats.Report
	// Err is the first fatal (non-protocol) error any worker hit.
	Err error
}

// Generator produces the logical transactions of a workload: worker is the
// executing worker index and seq the per-worker sequence number.
type Generator func(worker, seq int) TxnFunc

// RunN executes perWorker logical transactions on each of workers
// concurrent sessions of e and returns merged statistics.
func RunN(e Engine, workers, perWorker int, gen Generator) RunResult {
	return run(e, workers, gen, func(seq int, _ time.Time) bool { return seq < perWorker })
}

// RunFor executes transactions on workers concurrent sessions of e until d
// has elapsed.
func RunFor(e Engine, workers int, d time.Duration, gen Generator) RunResult {
	return run(e, workers, gen, func(_ int, start time.Time) bool { return time.Since(start) < d })
}

// run creates every session before it starts the clock, so the elapsed
// time covers transactions only, not session setup.
func run(e Engine, workers int, gen Generator, more func(seq int, start time.Time) bool) RunResult {
	cols := make([]*stats.Collector, workers)
	sessions := make([]Session, workers)
	for w := range sessions {
		cols[w] = &stats.Collector{}
		sessions[w] = e.NewSession(w, cols[w])
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := sessions[w]
			for seq := 0; more(seq, start); seq++ {
				if err := sess.Run(gen(w, seq)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := RunResult{Collectors: cols, Elapsed: elapsed}
	for _, err := range errs {
		if err != nil {
			res.Err = err
			break
		}
	}
	res.Report = stats.Summarize(e.Name(), elapsed, cols, e.Database().Global)
	return res
}
