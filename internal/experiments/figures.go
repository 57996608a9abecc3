package experiments

import (
	"repro"
	"repro/internal/des"
	"repro/internal/flexible"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/trace"
	"repro/internal/vec"
)

// figureRun executes the schematic two-processor run of the paper's
// figures and returns its trace.
func figureRun(flex flexible.Schedule) (*trace.Log, *repro.Report, error) {
	a := vec.DenseFromRows([][]float64{
		{0, 0.5},
		{0.5, 0},
	})
	op := operators.NewLinear(a, []float64{1, 1}) // fixed point (2, 2)
	lg := &trace.Log{}
	res, err := repro.Solve(repro.Spec{
		Problem:  repro.Problem{Op: op, X0: []float64{10, 10}, XStar: []float64{2, 2}},
		Dynamics: repro.Dynamics{Flexible: flex},
		Execution: repro.Execution{
			Workers: 2,
			Cost:    des.HeterogeneousCost([]float64{1.0, 1.6}),
			Latency: des.FixedLatency(0.25),
			Seed:    1,
			Trace:   lg,
		},
		Stopping: repro.Stopping{MaxTime: 6}, // nine phases, the last at t = 6
		Engine:   repro.EngineSim,
	})
	return lg, res, err
}

// F1 regenerates Figure 1: plain asynchronous iterations between two
// processors — numbered updating phases, communications at phase ends,
// computations covered by communication (no idle time).
func F1() *Report {
	rep := &Report{ID: "F1", Title: "Figure 1: asynchronous iterative algorithm (two processors)"}
	lg, res, err := figureRun(flexible.None())
	if err != nil {
		rep.Note("error: %v", err)
		return rep
	}
	rep.Note("%s", trace.RenderGantt(lg, 76))
	sends, partials := 0, 0
	for _, e := range lg.Events {
		switch e.Kind {
		case trace.Send:
			sends++
		case trace.PartialSend:
			partials++
		}
	}
	tb := metrics.NewTable("trace summary", "updates", "complete sends", "partial sends", "virtual time")
	tb.AddRow(res.Updates, sends, partials, res.Time)
	rep.Tables = append(rep.Tables, tb)
	rep.Pass = res.Updates == 9 && sends > 0 && partials == 0
	return rep
}

// F2 regenerates Figure 2: the same run with flexible communication —
// partial updates (hatched arrows) published mid-phase.
func F2() *Report {
	rep := &Report{ID: "F2", Title: "Figure 2: asynchronous iterations with flexible communication"}
	lg, res, err := figureRun(flexible.Uniform(2))
	if err != nil {
		rep.Note("error: %v", err)
		return rep
	}
	rep.Note("%s", trace.RenderGantt(lg, 76))
	sends, partials := 0, 0
	for _, e := range lg.Events {
		switch e.Kind {
		case trace.Send:
			sends++
		case trace.PartialSend:
			partials++
		}
	}
	tb := metrics.NewTable("trace summary", "updates", "complete sends", "partial sends", "virtual time")
	tb.AddRow(res.Updates, sends, partials, res.Time)
	rep.Tables = append(rep.Tables, tb)
	rep.Pass = partials > 0
	return rep
}
