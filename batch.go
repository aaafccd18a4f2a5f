package glitchsim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"glitchsim/internal/core"
)

// The parallel batch measurement layer: independent measurement configs
// (seeds × circuits × delay models) are sharded across a worker pool of
// per-goroutine simulators. Each distinct netlist is compiled once and
// the immutable compiled form is shared read-only by all workers, so a
// multi-seed study pays one compilation and N simulations. Results are
// deterministic: job i's outcome depends only on jobs[i], never on the
// worker count or scheduling order. The pool is context-aware: workers
// stop picking up new items as soon as the request's context is
// cancelled, and in-flight simulations abort from inside the kernel.

// DefaultWorkers returns the worker-pool size of an Engine built without
// WithWorkers: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// MeasureJob is one independent measurement: a circuit and the
// configuration to measure it under. Jobs sharing a *netlist.Netlist
// (through CircuitFromNetlist) or a structure share one compiled form.
// A job with an explicit Config.Source must not share that source with
// another job (sources are stateful); Seed-based jobs need no such care.
type MeasureJob struct {
	// Circuit references the circuit to measure (see CircuitNamed and
	// friends). Resolution failures land in the job's MeasureResult.
	Circuit Circuit
	Config  Config
}

// MeasureResult is the outcome of one MeasureJob.
type MeasureResult struct {
	// Activity summarizes the classified transition counts (valid when
	// Err is nil).
	Activity Activity
	// Counter holds the full per-net statistics (nil when Err is set).
	Counter *core.Counter
	// Err reports a failed measurement; other jobs are unaffected.
	Err error
}

// parallelEachCtx runs f(0), …, f(n-1) on a pool of `workers` goroutines
// (callers pass Engine.workerCount, which is at least 1). Workers stop
// claiming new indices once ctx is cancelled; the function then returns
// ctx's error. With a live context it returns the lowest-index error
// from f, so the reported failure does not depend on scheduling order.
// It is the harness behind every Engine fan-out (batches, seed sweeps,
// retime-then-measure experiment drivers).
func parallelEachCtx(ctx context.Context, n, workers int, f func(i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	done := ctx.Done()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
