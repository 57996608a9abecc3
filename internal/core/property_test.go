package core

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/flexible"
	"repro/internal/macroiter"
	"repro/internal/operators"
	"repro/internal/prox"
	"repro/internal/steering"
	"repro/internal/vec"
)

// Property: Theorem 1's bound (5) holds on randomly generated admissible
// instances — separable strongly convex f + L1, any admissible step, any
// bounded delay, any flexibility fraction.
func TestTheorem1RandomInstances(t *testing.T) {
	rng := vec.NewRNG(71)
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		a := make([]float64, n)
		tt := make([]float64, n)
		for i := range a {
			a[i] = 0.5 + 4*rng.Float64()
			tt[i] = 4*rng.Float64() - 2
		}
		f := operators.NewSeparable(a, tt)
		gamma := (0.3 + 0.7*rng.Float64()) * operators.MaxStep(f)
		lambda := 0.3 * rng.Float64()
		op := operators.NewProxGradBF(f, prox.L1{Lambda: lambda}, gamma)
		ystar, ok := operators.FixedPoint(op, make([]float64, n), 1e-14, 400000)
		if !ok {
			t.Fatalf("trial %d: reference failed", trial)
		}
		b := 1 + rng.Intn(8)
		theta := rng.Float64()
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = ystar[i] + rng.Range(1, 5)
		}
		res, err := Run(Config{
			Op:       op,
			Steering: steering.NewCyclic(n),
			Delay:    delay.BoundedRandom{B: b, Seed: rng.Uint64()},
			Theta:    theta,
			X0:       x0,
			XStar:    ystar,
			Tol:      1e-11,
			MaxIter:  2000000,
		})
		if err != nil || !res.Converged {
			t.Fatalf("trial %d: run failed (err=%v)", trial, err)
		}
		rho := operators.TheoreticalRho(f, gamma)
		rep, err := CheckTheorem1(res, rho)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !rep.Holds {
			t.Fatalf("trial %d: bound violated (n=%d b=%d theta=%.2f gamma=%.3f): ratio %v",
				trial, n, b, theta, gamma, rep.WorstRatio)
		}
	}
}

// Property: the engine's recorded strict boundaries always satisfy the
// suffix guarantee against the recorded labels, for varied delay models.
func TestStrictBoundariesSuffixGuaranteeProperty(t *testing.T) {
	op, xstar := testSystem(t, 6)
	models := []delay.Model{
		delay.Fresh{},
		delay.BoundedRandom{B: 10, Seed: 3},
		delay.OutOfOrder{W: 20, Seed: 4},
		delay.SqrtGrowth{},
	}
	for _, m := range models {
		res, err := Run(Config{
			Op:          op,
			Delay:       m,
			XStar:       xstar,
			MaxIter:     5000,
			KeepRecords: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		bs := res.StrictBoundaries
		for k, b := range bs {
			start := 0
			if k > 0 {
				start = bs[k-1]
			}
			for _, r := range res.Records {
				if r.J > b && r.MinLabel < start {
					t.Fatalf("%s: suffix guarantee violated at boundary %d (J=%d label=%d < %d)",
						m.Name(), b, r.J, r.MinLabel, start)
				}
			}
		}
		// Strict boundaries can be no denser than Definition 2 boundaries.
		if len(bs) > len(res.Boundaries) {
			t.Fatalf("%s: strict count %d > def2 count %d", m.Name(), len(bs), len(res.Boundaries))
		}
		// And strict macro windows never admit pre-previous-window reads.
		if v := macroiter.EpochStaleness(bs, res.Records); v != 0 {
			t.Fatalf("%s: %d staleness violations in strict windows", m.Name(), v)
		}
	}
}

// Property: the error sequence of a contracting run is bounded by its
// initial value at all times (the outermost box), for any delay model and
// theta.
func TestErrorNeverExceedsInitialBox(t *testing.T) {
	op, xstar := testSystem(t, 6)
	rng := vec.NewRNG(73)
	for trial := 0; trial < 10; trial++ {
		theta := rng.Float64()
		res, err := Run(Config{
			Op:      op,
			Delay:   delay.BoundedRandom{B: 1 + rng.Intn(16), Seed: rng.Uint64()},
			Theta:   theta,
			XStar:   xstar,
			MaxIter: 3000,
		})
		if err != nil {
			t.Fatal(err)
		}
		e0 := res.Errors[0]
		for j, e := range res.Errors {
			if e > e0+1e-12 {
				t.Fatalf("trial %d: error %v at iteration %d exceeds initial %v",
					trial, e, j, e0)
			}
		}
	}
}

// Property: updates count equals the total size of all recorded S_j.
func TestUpdatesMatchRecords(t *testing.T) {
	op, _ := testSystem(t, 5)
	res, err := Run(Config{
		Op:          op,
		Steering:    steering.NewBlockCyclic(5, 2),
		MaxIter:     321,
		KeepRecords: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range res.Records {
		total += len(r.S)
	}
	if total != res.Updates {
		t.Errorf("sum |S_j| = %d, Updates = %d", total, res.Updates)
	}
}

// readSpy is an operator that checks, at every iteration of a Run, the read
// vector it is handed against Definitions 1 and 3 evaluated on its own
// dense store of every past iterate, and never converges (its residual is
// 1), so a wrong read cannot hide behind equal values. Select tells it the
// iteration, and counts the cases of History.Read's window in cases.
type readSpy struct {
	steering.Policy
	t     *testing.T
	ref   delay.Model // a second instance: Monotone is stateful
	theta float64
	cur   []float64   // the freshest iterate
	dense [][]float64 // dense[l] = x(l)
	want  []float64   // the defined read vector of the current iteration
	j     int
	due   int                  // relaxations of the current iteration still to come
	mins  []int                // the defined minimum label of every iteration
	upd   []struct{ i, j int } // every update, in order
	setAt []int                // the iteration each component was last relaxed at
	// last is the previous iteration's window, its first update (-1 after
	// a full read); checked says a residual evaluation came after it.
	last    int
	checked bool
	cases   *[readCases]int
}

// The cases of History.Read that TestRunReadsTheDefinedVector must reach.
const (
	readEmpty      = iota // no update after the least label
	readWindow            // fewer than n
	readAll               // n or more: all n looked up
	readAfterAll          // a window right after a full read
	readDropped           // a window that some of the previous one's entries left
	readSecondPast        // a component with two window entries past its label
	readReSet             // a component relaxed twice in one iteration
	readChecked           // a residual check between two reads
	readCases
)

var readCaseNames = [readCases]string{"empty window", "window", "full read",
	"window after a full read", "window that entries left", "second entry past a label",
	"same-iteration re-Set", "residual check between reads"}

func (s *readSpy) Select(j int) []int {
	n := len(s.cur)
	s.j = j
	s.dense = append(s.dense, append([]float64(nil), s.cur...))
	least := j - 1
	labels := make([]int, n)
	for h := range s.want {
		l := s.ref.Label(h, j)
		labels[h] = l
		least = min(least, l)
		s.want[h] = flexible.Interpolate(s.dense[l][h], s.cur[h], s.theta)
	}
	s.mins = append(s.mins, least)
	first := len(s.upd)
	for first > 0 && s.upd[first-1].j > least {
		first--
	}
	switch after := len(s.upd) - first; {
	case after >= n:
		s.cases[readAll]++
		first = -1
	case after > 0:
		s.cases[readWindow]++
		past := make([]int, n)
		for _, u := range s.upd[first:] {
			if u.j > labels[u.i] {
				if past[u.i]++; past[u.i] == 2 {
					s.cases[readSecondPast]++
				}
			}
		}
	default:
		s.cases[readEmpty]++
	}
	if first >= 0 && s.last < 0 {
		s.cases[readAfterAll]++
	}
	if first > s.last && s.last >= 0 {
		s.cases[readDropped]++
	}
	if s.checked {
		s.cases[readChecked]++
	}
	s.last, s.checked = first, false
	S := s.Policy.Select(j)
	s.due = len(S)
	return S
}

func (s *readSpy) Dim() int     { return len(s.cur) }
func (s *readSpy) Name() string { return "readSpy" }

func (s *readSpy) Component(i int, x []float64) float64 {
	if s.due == 0 { // a residual evaluation, not a read
		s.checked = true
		return x[i] + 1
	}
	s.due--
	for h := range x {
		if x[h] != s.want[h] {
			s.t.Fatalf("%s %s theta=%v: iteration %d read x[%d] = %v, definition gives %v",
				s.ref.Name(), s.Policy.Name(), s.theta, s.j, h, x[h], s.want[h])
		}
	}
	v := 0.5*x[i] + 0.25*x[(i+1)%len(x)] + float64(s.j%7) + float64(s.due)
	s.cur[i] = v
	if s.setAt[i] == s.j {
		s.cases[readReSet]++
	} else {
		s.upd = append(s.upd, struct{ i, j int }{i, s.j})
	}
	s.setAt[i] = s.j
	return v
}

// twice relaxes the first component of every fifth S_j a second time.
type twice struct {
	steering.Policy
	buf []int
}

func (p *twice) Select(j int) []int {
	S := p.Policy.Select(j)
	if j%5 != 0 || len(S) == 0 {
		return S
	}
	p.buf = append(append(p.buf[:0], S...), S[0])
	return p.buf
}

// Property: at every iteration Run hands the operator exactly the vector
// Definitions 1 and 3 define — x_h(l_h(j)), blended toward x_h(j-1) by Theta
// — and records the defined minimum label, for every delay model, sparse,
// block, random, Jacobi and re-relaxing steering, with and without a
// residual check between reads, through every case of History.Read's kept
// read vector.
func TestRunReadsTheDefinedVector(t *testing.T) {
	const n, iters = 6, 2000
	rng := vec.NewRNG(77)
	innerW, innerSeed := 1+rng.Intn(16), rng.Uint64()
	models := []func() delay.Model{
		func() delay.Model { return delay.Fresh{} },
		func() delay.Model { return delay.Constant{D: 3} },
		func() delay.Model { return delay.BoundedRandom{B: 5, Seed: 1} },
		func() delay.Model { return delay.BoundedRandom{B: 8, Seed: 2} },
		func() delay.Model { return delay.BoundedRandom{B: 1000, Seed: 4} }, // least rarely meets its floor
		func() delay.Model { return delay.BoundedRandom{B: 0, Seed: 5} },
		func() delay.Model { return delay.OutOfOrder{W: 8, Seed: 3} },
		func() delay.Model { return delay.SqrtGrowth{} },
		func() delay.Model { return delay.SqrtGrowth{Slow: map[int]bool{1: true}} },
		func() delay.Model { return delay.LogGrowth{} },
		func() delay.Model {
			return delay.PerComponent{Models: []delay.Model{delay.Fresh{}, delay.Constant{D: 40}, delay.SqrtGrowth{}}}
		},
		func() delay.Model { return delay.NewMonotone(delay.OutOfOrder{W: innerW, Seed: innerSeed}) },
	}
	steerings := []func() steering.Policy{
		func() steering.Policy { return steering.NewCyclic(n) },
		func() steering.Policy { return steering.NewBlockCyclic(n, 2) },
		func() steering.Policy { return steering.NewRandomSubset(n, 1, 9) },
		func() steering.Policy { return steering.NewAll(n) },
		func() steering.Policy { return &twice{Policy: steering.NewCyclic(n)} },
	}
	runs := []struct{ theta, tol float64 }{{0, 0}, {0.5, 0}, {0, 1e-9}}
	var cases [readCases]int
	scr := NewRunScratch() // pooled, so every run also exercises Reset
	for _, model := range models {
		for _, pol := range steerings {
			for _, r := range runs {
				x0 := rng.NormalVector(n)
				spy := &readSpy{Policy: pol(), t: t, ref: model(), theta: r.theta,
					cur: append([]float64(nil), x0...), want: make([]float64, n),
					setAt: make([]int, n), cases: &cases}
				res, err := Run(Config{Op: spy, Steering: spy, Delay: model(), Theta: r.theta, Tol: r.tol,
					X0: x0, MaxIter: iters, Scratch: scr, KeepRecords: true})
				if err != nil || res.Iterations != iters {
					t.Fatalf("%s: err=%v after %d iterations", spy.ref.Name(), err, res.Iterations)
				}
				for k, r := range res.Records {
					if r.MinLabel != spy.mins[k] {
						t.Fatalf("%s %s: iteration %d recorded min label %d, definition gives %d",
							spy.ref.Name(), spy.Policy.Name(), r.J, r.MinLabel, spy.mins[k])
					}
				}
				for i, v := range res.X {
					if v != spy.cur[i] {
						t.Fatalf("%s: final X[%d] = %v, want %v", spy.ref.Name(), i, v, spy.cur[i])
					}
				}
			}
		}
	}
	for c, name := range readCaseNames {
		if cases[c] == 0 {
			t.Errorf("no iteration reached History.Read's case %q", name)
		}
	}
}
