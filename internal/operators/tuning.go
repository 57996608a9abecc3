package operators

import (
	"runtime"
	"sync"

	"repro/internal/vec"
)

// Tuning holds the kernel-level performance knob a Scratch carries into
// every block evaluation. The zero value is the default: serial. Every
// setting is bit-identical to the scalar reference — parallel lanes write
// disjoint output rows — so tuning never changes a trajectory.
type Tuning struct {
	// Parallelism is the number of goroutine lanes a block evaluation of at
	// least ParallelWork multiply-adds fans out over; 0 or 1 keeps
	// evaluation on the calling goroutine.
	Parallelism int
}

// ParallelWork is the multiply-add count below which a block evaluation
// never fans out (dense rows x cols, CSR stored entries, lean rows x
// samples). On 2 vCPU two lanes lose below it on dense slabs, tie at it
// and win above; sparse rows lose at 64k stored entries and win at 259k,
// lean rows win from less, and no measured shape loses from it up (README
// "Tuning" has the table).
const ParallelWork = 1 << 19

// SetTuning installs the kernel tuning knobs on s. Engines call it once per
// solve on every worker scratch, so a pooled Scratch reused across jobs with
// different tuning always runs with the current job's settings.
func (s *Scratch) SetTuning(t Tuning) { s.tun = t }

// WorkerScratch returns worker w's scratch for one run — pool[w] when the
// caller supplied it, a fresh one otherwise — with the run's tuning
// installed. Every worker-based engine draws its scratches here; a worker
// owns its scratch exclusively for the duration of the run.
func WorkerScratch(pool []*Scratch, w int, t Tuning) *Scratch {
	var scr *Scratch
	if w < len(pool) {
		scr = pool[w]
	}
	if scr == nil {
		scr = NewScratch()
	}
	scr.SetTuning(t)
	return scr
}

// laneExecutor is the process-wide worker pool behind intra-block fan-out.
// It is shared by every Scratch (a Scratch has no Close, and the server
// pools scratches indefinitely, so per-Scratch goroutines would leak) and
// started lazily on the first parallel block evaluation.
var laneExecutor struct {
	once sync.Once
	jobs chan func()
}

// submitLane enqueues one lane job on the shared executor, starting the
// pool on first use. The worker count is read from the machine exactly
// once and is a pure throughput knob: lanes write disjoint output rows
// and each lane's reduction order is fixed by its rows, so pool
// width can never change a trajectory — which is what licenses the
// tuning-gate below.
//
//repro:tuning-gate pool sizing only; lane fan-out is bit-identical at any width
func submitLane(f func()) {
	laneExecutor.once.Do(func() {
		laneExecutor.jobs = make(chan func(), 64)
		n := runtime.NumCPU()
		if n < 2 {
			n = 2
		}
		if n > 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			go func() {
				for job := range laneExecutor.jobs {
					job()
				}
			}()
		}
	})
	laneExecutor.jobs <- f
}

// fanOut reports whether a slab costing work multiply-adds should be split
// across lanes. Slabs below ParallelWork always run inline: the join
// overhead would exceed the slab work.
func (s *Scratch) fanOut(work int) bool {
	return s.tun.Parallelism > 1 && work >= ParallelWork
}

// parallelRows splits the row range [lo, hi) across the scratch's configured
// lanes and runs fn on each sub-range, lane 0 inline on the calling
// goroutine. fn must write only the output rows of its own sub-range; the
// join is the only synchronization. Callers check fanOut first — the serial
// path never constructs the closure, keeping warmed serial evaluation
// allocation-free.
func (s *Scratch) parallelRows(lo, hi int, fn func(l, h int)) {
	p := s.tun.Parallelism
	if p > hi-lo {
		p = hi - lo
	}
	blocks := vec.Blocks(hi-lo, p)
	var wg sync.WaitGroup
	for k := 1; k < len(blocks); k++ {
		k := k
		wg.Add(1)
		submitLane(func() {
			defer wg.Done()
			fn(lo+blocks[k][0], lo+blocks[k][1])
		})
	}
	fn(lo+blocks[0][0], lo+blocks[0][1])
	wg.Wait()
}

// denseSlab computes dst[i-lo] = (M x)_i for i in [lo, hi), fanned out
// over lanes when the slab is large enough. Bit-identical to
// M.MulRangeTo(dst, x, lo, hi) for every tuning.
func denseSlab(scr *Scratch, m *vec.Dense, dst, x []float64, lo, hi int) {
	if scr == nil || !scr.fanOut((hi-lo)*m.Cols) {
		m.MulRangeTo(dst, x, lo, hi)
		return
	}
	scr.parallelRows(lo, hi, func(l, h int) {
		m.MulRangeTo(dst[l-lo:h-lo], x, l, h)
	})
}

// csrSlab is denseSlab's sparse, affine analog, dst[i-lo] = (M x)_i + b[i],
// bit-identical to M.RowDotAt(i, x) + b[i] for every tuning.
func csrSlab(scr *Scratch, m *vec.CSR, dst, x, b []float64, lo, hi int) {
	if scr == nil || !scr.fanOut(m.RowPtr[hi]-m.RowPtr[lo]) {
		m.MulAddRangeTo(dst, x, b, lo, hi)
		return
	}
	scr.parallelRows(lo, hi, func(l, h int) {
		m.MulAddRangeTo(dst[l-lo:h-lo], x, b, l, h)
	})
}
