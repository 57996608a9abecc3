package experiments

import (
	"errors"
	"math"

	"repro"
	"repro/internal/delay"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/vec"
)

// E17 demonstrates that the max-norm contraction hypothesis of the paper's
// Theorem 1 (Remark 1) is not a technicality but *necessary* for totally
// asynchronous convergence — the classical Chazan–Miranker boundary. The
// affine operator built from a scaled rotation,
//
//	A = r * [[cos t, -sin t], [sin t, cos t]],  t = 45 degrees,
//
// has spectral radius rho(A) = r < 1, so the synchronous iteration always
// converges; but rho(|A|) = r*sqrt(2) exceeds 1 for r > 0.71, and
// Chazan–Miranker proved chaotic relaxation can then diverge. We exhibit
// the divergence with a perfectly admissible asynchronous schedule
// (conditions a–c hold: fresh reads, both components relaxed infinitely
// often): exhaustively relax one component, then the other. Each
// half-phase transfers the frozen component's value with gain
// g = r sin t / (1 - r cos t), so the alternation amplifies by g^2 > 1.
//
// Random bounded delays, by contrast, leave every r < 1 convergent in
// practice — asynchronous divergence is an adversarial-schedule phenomenon,
// which is why the literature states convergence for *all* admissible
// schedules only under rho(|A|) < 1.
func E17() *Report {
	rep := &Report{ID: "E17", Title: "Necessity of the max-norm contraction (Chazan–Miranker boundary)"}
	theta := math.Pi / 4
	tb := metrics.NewTable("scaled rotation, sync Jacobi vs adversarial and random asynchronous schedules",
		"r", "rho(A)", "rho(|A|)", "phase gain g^2", "sync", "async random B=16", "async adversarial")
	pass := true
	for _, r := range []float64{0.5, 0.65, 0.8, 0.95} {
		a := vec.DenseFromRows([][]float64{
			{r * math.Cos(theta), -r * math.Sin(theta)},
			{r * math.Sin(theta), r * math.Cos(theta)},
		})
		op := operators.NewLinear(a, []float64{1, 1})
		m := vec.Identity(2)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				m.Set(i, j, m.At(i, j)-a.At(i, j))
			}
		}
		xstar, err := m.SolveGaussian([]float64{1, 1})
		if err != nil {
			rep.Note("r=%v: %v", r, err)
			pass = false
			continue
		}
		g := r * math.Sin(theta) / (1 - r*math.Cos(theta))
		gain := g * g

		outcome := func(res *repro.Report, err error) string {
			if errors.Is(err, repro.ErrDiverged) {
				return "DIV"
			} else if err != nil {
				return "error"
			}
			final := res.Errors[len(res.Errors)-1]
			switch {
			case res.Converged && vec.AllFinite(res.X):
				return "conv"
			case vec.AllFinite(res.X) && final <= res.Errors[0]:
				return "stable"
			default:
				return "DIV"
			}
		}

		base := repro.Spec{
			Problem:  repro.Problem{Op: op, X0: offsetStart(xstar), XStar: xstar},
			Stopping: repro.Stopping{Tol: 1e-9, MaxIter: 100000},
		}
		sync := outcome(repro.Solve(base, repro.WithDelay(delay.Fresh{})))
		random := outcome(repro.Solve(base, repro.WithDelay(delay.BoundedRandom{B: 16, Seed: 171})))
		adversarial := outcome(repro.Solve(base,
			repro.WithDelay(delay.Fresh{}),
			repro.WithSteering(newExhaustivePhases(2, 40))))
		tb.AddRow(r, r, r*math.Sqrt2, gain, sync, random, adversarial)

		if sync != "conv" || random != "conv" {
			pass = false // rho(A) < 1: these must converge
		}
		if gain > 1.05 && adversarial != "DIV" {
			pass = false // above the boundary the adversarial schedule must diverge
		}
		if gain < 0.95 && adversarial == "DIV" {
			pass = false // below the boundary even the adversary converges
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Note("expected shape: sync and randomly-delayed async always converge (rho(A) < 1);")
	rep.Note("the adversarial exhaustive-relaxation schedule diverges exactly when the")
	rep.Note("phase gain g^2 = (r sin t / (1 - r cos t))^2 exceeds 1 — i.e. when the operator")
	rep.Note("is not a max-norm contraction, vindicating the paper's Remark 1 hypothesis")
	rep.Pass = pass
	return rep
}

// exhaustivePhases relaxes component 0 for phaseLen iterations, then
// component 1, and so on — an admissible schedule (every component occurs
// infinitely often) that exhausts each coordinate against frozen values of
// the others.
type exhaustivePhases struct {
	n, phaseLen int
	buf         [1]int
}

func newExhaustivePhases(n, phaseLen int) *exhaustivePhases {
	return &exhaustivePhases{n: n, phaseLen: phaseLen}
}

func (p *exhaustivePhases) Select(j int) []int {
	p.buf[0] = ((j - 1) / p.phaseLen) % p.n
	return p.buf[:]
}

func (p *exhaustivePhases) Name() string { return "exhaustivePhases" }
