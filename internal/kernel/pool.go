package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"swim/internal/tensor"
)

// minParallelFlops is the smallest job (in multiply-adds) worth waking the
// pool for; anything smaller runs inline on the caller. It is a variable
// only so tests can send every multi-unit job through the pool.
var minParallelFlops = 1 << 15

// jobKind selects the loop body a pool unit runs.
type jobKind uint8

const (
	jobMatMul   jobKind = iota // one destination row of C = A·B
	jobTransA                  // one destination row of C = Aᵀ·B
	jobTransB                  // one destination row of C = A·Bᵀ
	jobLinear                  // one destination row of x·wᵀ + bias
	jobConvTile                // one sample of an output-channel tile from a shared panel
)

// pjob describes one kernel call split into independent units: plain data
// fields only, so handing it to the pool is a struct copy, never a closure
// allocation.
type pjob struct {
	kind    jobKind
	units   int
	cd      []float64 // destination
	ad      []float64 // left operand (input images for jobConvTile)
	bd      []float64 // right operand (weights for jobLinear and jobConvTile)
	bias    []float64
	m, k, n int
	acc     bool
	g       tensor.Conv2DGeom
	outC    int
	oc      int       // jobConvTile: first output channel of the tile
	lanes   int       // jobConvTile: output channels in the tile
	pk      []float64 // jobConvTile: the tile's packed weight panel
}

// runUnit executes unit u of job j: one destination row for the matmul
// kinds, one batch sample for the convolution.
func runUnit(j *pjob, u int) {
	switch j.kind {
	case jobMatMul:
		matMulRowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad[u*j.k:(u+1)*j.k], j.bd, j.k, j.n, j.acc)
	case jobTransA:
		matMulTransARowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad, u, j.m, j.bd, j.k, j.n, j.acc)
	case jobTransB:
		matMulTransBRowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad[u*j.k:(u+1)*j.k], j.bd, j.k, j.n, j.acc)
	case jobLinear:
		linearRowBlocked(j.cd[u*j.n:(u+1)*j.n], j.ad[u*j.k:(u+1)*j.k], j.bd, j.bias, j.k, j.n)
	case jobConvTile:
		si := j.g.InC * j.g.InH * j.g.InW
		hw := j.g.OutH * j.g.OutW
		kr := j.g.ColRows()
		out := j.cd[(u*j.outC+j.oc)*hw : (u*j.outC+j.oc+j.lanes)*hw]
		convTile(j.g, j.lanes, out, j.ad[u*si:(u+1)*si], j.pk, j.bd[j.oc*kr:(j.oc+1)*kr], j.bias[j.oc:j.oc+j.lanes])
	}
}

// dispatch runs every unit of j, fanning them across the shared pool when
// the job (macs multiply-adds) is large enough and the pool is free, and on
// the calling goroutine otherwise. Units write disjoint destination regions
// and keep each element's accumulation inside one unit, so the result is
// bit-identical however the units are scheduled.
func dispatch(j *pjob, macs int) {
	if macs >= minParallelFlops && sharedPool.run(j) {
		return
	}
	for u := 0; u < j.units; u++ {
		runUnit(j, u)
	}
}

// sharedPool is the process-wide worker pool behind every blocked call.
// Sharing one pool bounds the goroutine count no matter how many evaluators
// run, and the TryLock dispatch degrades concurrent users to the inline path
// instead of queuing them: at most one caller fans out at a time, so a
// Monte-Carlo engine that already fills every core gains at most NumCPU-1
// runnable goroutines, while the cores its workers leave idle — fewer
// trials than cores, the tail of a pipeline — get lent out.
var sharedPool pool

// pool runs pjobs across NumCPU-1 persistent worker goroutines (the calling
// goroutine is the remaining lane), started on first use. Dispatch is a
// struct copy, a channel token per woken worker and an atomic work cursor —
// no per-call allocations, preserving the plan tier's zero-allocation steady
// state.
type pool struct {
	mu    sync.Mutex // held for the duration of one dispatched job
	start sync.Once
	wake  chan struct{}
	lanes int // worker goroutines, excluding the caller's lane
	job   pjob
	next  atomic.Int64
	wg    sync.WaitGroup
}

func (pl *pool) init() {
	pl.lanes = runtime.NumCPU() - 1
	pl.wake = make(chan struct{}, pl.lanes) // one token per worker per job
	for i := 0; i < pl.lanes; i++ {
		go pl.serve()
	}
}

// serve is one worker goroutine: wait for a wake token, drain the work
// cursor, signal completion, repeat. The channel receive orders the job
// fields written by run before any read here; wg.Done orders every
// destination write before run's return.
func (pl *pool) serve() {
	for range pl.wake {
		pl.work()
		pl.wg.Done()
	}
}

// work claims units off the shared cursor until the job is drained.
func (pl *pool) work() {
	for {
		u := int(pl.next.Add(1)) - 1
		if u >= pl.job.units {
			return
		}
		runUnit(&pl.job, u)
	}
}

// run executes j's units across the pool's workers and the caller and
// returns once all units are done. It returns false without touching j's
// destination when the pool is busy or parallelism cannot help; the caller
// then runs inline — results are identical either way.
func (pl *pool) run(j *pjob) bool {
	if j.units < 2 || !pl.mu.TryLock() {
		return false
	}
	pl.start.Do(pl.init)
	n := min(pl.lanes, j.units-1)
	if n <= 0 {
		pl.mu.Unlock()
		return false
	}
	pl.job = *j
	pl.next.Store(0)
	pl.wg.Add(n)
	for i := 0; i < n; i++ {
		pl.wake <- struct{}{}
	}
	pl.work()
	pl.wg.Wait()
	pl.job = pjob{} // drop the operand references until the next job
	pl.mu.Unlock()
	return true
}
