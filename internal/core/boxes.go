package core

import (
	"errors"
	"math"

	"repro/internal/delay"
)

// BoxReport is the outcome of checking the nested level-set ("box")
// structure of the General Convergence Theorem of Bertsekas (the paper's
// Section III): from one macro-iteration to the next, the iterate vector
// enters a strictly smaller box around the fixed point,
//
//	X(0) ⊃ X(1) ⊃ X(2) ⊃ ...,  x* = ∩_k X(k),
//
// where X(k) is the Cartesian product of per-component error intervals.
// Empirically we take X(k) to be the envelope of per-component errors
// observed after the k-th strict macro-iteration boundary and verify the
// inclusions (with tolerance) plus geometric shrinkage of the box radius.
type BoxReport struct {
	// Nested reports whether every successive box was contained in its
	// predecessor (within tolerance).
	Nested bool
	// Radii[k] is the max-norm radius of box k (the envelope over all
	// iterations in window k and later of the componentwise error).
	Radii []float64
	// ShrinkFactors[k] = Radii[k+1] / Radii[k].
	ShrinkFactors []float64
	// WorstInclusionViolation is the largest amount (absolute error units)
	// by which a later box exceeded an earlier one; 0 when perfectly
	// nested.
	WorstInclusionViolation float64
}

// CheckBoxes verifies the nested-box structure on a recorded run. It
// requires the run to have tracked per-iteration errors (XStar provided)
// and uses the strict macro-iteration boundaries. perIterComponentErrors
// must contain, for each iteration j = 0..Iterations, the componentwise
// absolute errors |x_i(j) - x*_i| (the engine's ComponentErrors option
// records them).
func CheckBoxes(boundaries []int, perIterComponentErrors [][]float64) (*BoxReport, error) {
	if len(perIterComponentErrors) == 0 {
		return nil, errors.New("core: CheckBoxes needs per-iteration component errors")
	}
	if len(boundaries) == 0 {
		return nil, errors.New("core: CheckBoxes needs at least one macro-iteration boundary")
	}
	n := len(perIterComponentErrors[0])
	numIters := len(perIterComponentErrors)

	// envelope[k][i] = sup over j >= boundaries[k] of |x_i(j) - x*_i|: the
	// half-width of box k in component i. Computed by a reverse sweep.
	suffixMax := make([]float64, n)
	for i := range suffixMax {
		suffixMax[i] = 0
	}
	// envAt[j][i] would be O(iters*n) memory; we only need it at the
	// boundaries, so collect those on the way back.
	boxAt := make(map[int][]float64, len(boundaries)+1)
	wanted := map[int]bool{0: true}
	for _, b := range boundaries {
		if b < numIters {
			wanted[b] = true
		}
	}
	for j := numIters - 1; j >= 0; j-- {
		errs := perIterComponentErrors[j]
		for i := 0; i < n; i++ {
			if errs[i] > suffixMax[i] {
				suffixMax[i] = errs[i]
			}
		}
		if wanted[j] {
			cp := make([]float64, n)
			copy(cp, suffixMax)
			boxAt[j] = cp
		}
	}

	rep := &BoxReport{Nested: true}
	// Box 0 is the envelope from iteration 0; box k from boundary k.
	ordered := make([][]float64, 0, len(boundaries)+1)
	ordered = append(ordered, boxAt[0])
	for _, b := range boundaries {
		if env, ok := boxAt[b]; ok {
			ordered = append(ordered, env)
		}
	}
	for k, env := range ordered {
		radius := 0.0
		for _, v := range env {
			if v > radius {
				radius = v
			}
		}
		rep.Radii = append(rep.Radii, radius)
		if k > 0 {
			prev := ordered[k-1]
			for i := 0; i < n; i++ {
				if d := env[i] - prev[i]; d > rep.WorstInclusionViolation {
					rep.WorstInclusionViolation = d
				}
			}
		}
	}
	// Suffix envelopes are nonincreasing by construction, so inclusion
	// holds automatically; the informative checks are the radii shrinkage.
	for k := 1; k < len(rep.Radii); k++ {
		if rep.Radii[k-1] > 0 {
			rep.ShrinkFactors = append(rep.ShrinkFactors, rep.Radii[k]/rep.Radii[k-1])
		} else {
			rep.ShrinkFactors = append(rep.ShrinkFactors, math.NaN())
		}
	}
	if rep.WorstInclusionViolation > 1e-12 {
		rep.Nested = false
	}
	return rep, nil
}

// RunWithComponentErrors executes Run and additionally records the
// per-iteration componentwise errors |x_i(j) - x*_i| needed by CheckBoxes.
// cfg.XStar is required.
func RunWithComponentErrors(cfg Config) (*Result, [][]float64, error) {
	if cfg.XStar == nil {
		return nil, nil, errors.New("core: RunWithComponentErrors requires XStar")
	}
	n := cfg.Op.Dim()
	if cfg.Delay == nil {
		cfg.Delay = delay.Fresh{} // mirror Run's default for the replay
	}
	cfg.KeepRecords = true // the replay walks the recorded S_j
	var perIter [][]float64
	res, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Replay the recorded run (its S_j, the same labels and Theta) into a
	// fresh history, snapshotting the errors. The engine is deterministic,
	// but a stateful delay model may not be replayable, so the final
	// iterates are compared below.
	x0 := cfg.X0
	if x0 == nil {
		x0 = make([]float64, n)
	}
	hist := NewHistory(x0)
	snapshotErr := func() []float64 {
		e := make([]float64, n)
		for i := 0; i < n; i++ {
			d := hist.Latest(i) - cfg.XStar[i]
			if d < 0 {
				d = -d
			}
			e[i] = d
		}
		return e
	}
	perIter = append(perIter, snapshotErr())
	xflex, labels := make([]float64, n), make([]int, n)
	for _, rec := range res.Records {
		xread, _, _ := hist.Read(cfg.Delay, rec.J, labels)
		if cfg.Theta > 0 {
			for h, lv := range xread {
				xflex[h] = lv + cfg.Theta*(hist.Latest(h)-lv)
			}
			xread = xflex
		}
		for _, i := range rec.S {
			hist.Set(i, rec.J, cfg.Op.Component(i, xread))
		}
		perIter = append(perIter, snapshotErr())
	}
	// Sanity: the replay must match the engine's final iterate.
	for i := 0; i < n; i++ {
		if math.Abs(hist.Latest(i)-res.X[i]) > 1e-12 {
			return nil, nil, errors.New("core: replay diverged from engine run (non-replayable steering?)")
		}
	}
	return res, perIter, nil
}
