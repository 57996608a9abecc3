package operators

import (
	"runtime"
	"sync"

	"repro/internal/vec"
)

// Tuning holds the kernel-level performance knobs a Scratch carries into
// every block evaluation. The zero value is the default: untiled, serial.
// Every setting is bit-identical to the scalar reference — tiling carries
// the canonical 4-accumulator reduction across tiles, and parallel lanes
// write disjoint output rows — so tuning never changes a trajectory.
type Tuning struct {
	// Tile is the column-tile width for dense row-slab matvecs; 0 disables
	// tiling. Rounded down to a multiple of 4 (tiles must end on
	// 4-aligned boundaries to preserve the canonical reduction order).
	Tile int
	// Parallelism is the number of goroutine lanes a large block evaluation
	// may fan out over; 0 or 1 keeps evaluation on the calling goroutine.
	Parallelism int
	// Threshold is the minimum block height (hi-lo) at which fan-out
	// engages; 0 means DefaultParallelThreshold. Small slabs are cheaper
	// than a channel round-trip, so they always run inline.
	Threshold int
}

// DefaultParallelThreshold is the block height below which intra-block
// fan-out is never attempted (the join overhead would exceed the slab work).
const DefaultParallelThreshold = 64

func (t Tuning) threshold() int {
	if t.Threshold <= 0 {
		return DefaultParallelThreshold
	}
	return t.Threshold
}

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

// Tuning reports the currently installed knobs.
func (s *Scratch) Tuning() Tuning { return s.tun }

// Acc returns the tiled-matvec accumulator buffer resized to length n. It
// lives outside the Vec/Aux slot spaces so kernels can never collide with
// operator- or harness-owned slots.
func (s *Scratch) Acc(n int) []float64 {
	if cap(s.acc) < n {
		s.acc = make([]float64, n)
	}
	return s.acc[:n]
}

// Lane returns the k-th lane sub-scratch for intra-block fan-out, created
// lazily. Lane scratches inherit the tile setting but are always serial
// (Parallelism 1) so a lane can never recursively fan out.
func (s *Scratch) Lane(k int) *Scratch {
	for len(s.lanes) <= k {
		s.lanes = append(s.lanes, NewScratch())
	}
	sub := s.lanes[k]
	sub.tun = Tuning{Tile: s.tun.Tile, Parallelism: 1, Threshold: s.tun.Threshold}
	return sub
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
// and each lane's reduction order is fixed by the tile plan, so pool
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

// fanOut reports whether a slab of the given row count should be split
// across lanes. Small slabs always run inline: the join overhead would
// exceed the slab work.
func (s *Scratch) fanOut(rows int) bool {
	return s.tun.Parallelism > 1 && rows >= 2 && rows >= s.tun.threshold()
}

// parallelRows splits the row range [lo, hi) across the scratch's configured
// lanes and runs fn on each sub-range, lane 0 inline on the calling
// goroutine. fn must write only the output rows of its own sub-range; the
// join is the only synchronization. Callers check fanOut first — the serial
// path never constructs the closure, keeping warmed serial evaluation
// allocation-free.
func (s *Scratch) parallelRows(lo, hi int, fn func(sub *Scratch, l, h int)) {
	p := s.tun.Parallelism
	if p > hi-lo {
		p = hi - lo
	}
	blocks := vec.Blocks(hi-lo, p)
	var wg sync.WaitGroup
	for k := 1; k < len(blocks); k++ {
		k := k
		sub := s.Lane(k)
		wg.Add(1)
		submitLane(func() {
			defer wg.Done()
			fn(sub, lo+blocks[k][0], lo+blocks[k][1])
		})
	}
	fn(s, lo+blocks[0][0], lo+blocks[0][1])
	wg.Wait()
}

// denseSlabSerial is one lane's worth of denseSlab: the tiled row-slab
// matvec when tiling is installed, the plain one otherwise.
func denseSlabSerial(scr *Scratch, m *vec.Dense, dst, x []float64, lo, hi int) {
	t := scr.tun.Tile &^ 3
	if t >= 8 && t < m.Cols {
		m.MulRangeTiledTo(dst, x, lo, hi, t, scr.Acc(4*(hi-lo)))
		return
	}
	m.MulRangeTo(dst, x, lo, hi)
}

// denseSlab computes dst[i-lo] = (M x)_i for i in [lo, hi) with every
// installed tuning knob applied: fan-out over lanes when the slab is large
// enough, and column tiling within each lane. Bit-identical to
// M.MulRangeTo(dst, x, lo, hi) for every knob combination.
func denseSlab(scr *Scratch, m *vec.Dense, dst, x []float64, lo, hi int) {
	if scr == nil {
		m.MulRangeTo(dst, x, lo, hi)
		return
	}
	if !scr.fanOut(hi - lo) {
		denseSlabSerial(scr, m, dst, x, lo, hi)
		return
	}
	scr.parallelRows(lo, hi, func(sub *Scratch, l, h int) {
		denseSlabSerial(sub, m, dst[l-lo:h-lo], x, l, h)
	})
}

// csrSlab is denseSlab's sparse, affine analog, dst[i-lo] = (M x)_i + b[i]:
// lane fan-out, no column tiling (sparse rows are short and already stream
// compactly), bit-identical to M.RowDotAt(i, x) + b[i] for every knob.
func csrSlab(scr *Scratch, m *vec.CSR, dst, x, b []float64, lo, hi int) {
	if scr == nil || !scr.fanOut(hi-lo) {
		m.MulAddRangeTo(dst, x, b, lo, hi)
		return
	}
	scr.parallelRows(lo, hi, func(sub *Scratch, l, h int) {
		m.MulAddRangeTo(dst[l-lo:h-lo], x, b, l, h)
	})
}
