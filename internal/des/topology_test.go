package des

import (
	"testing"

	"repro/internal/obstacle"
	"repro/internal/operators"
	"repro/internal/runtime"
)

func TestChainNeighborsShape(t *testing.T) {
	nb := ChainNeighbors(4)
	want := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	for w := range want {
		if len(nb[w]) != len(want[w]) {
			t.Fatalf("worker %d neighbors = %v, want %v", w, nb[w], want[w])
		}
		for k := range want[w] {
			if nb[w][k] != want[w][k] {
				t.Fatalf("worker %d neighbors = %v, want %v", w, nb[w], want[w])
			}
		}
	}
	single := ChainNeighbors(1)
	if len(single[0]) != 0 {
		t.Error("single worker should have no neighbors")
	}
}

func TestSubdomainExchangeConvergesWithFewerMessages(t *testing.T) {
	// Strip-partitioned obstacle problem: the 5-point stencil couples only
	// adjacent strips, so chain-topology exchange suffices and sends far
	// fewer messages than all-to-all.
	p := obstacle.Membrane(12)
	ustar, ok := operators.FixedPoint(p, p.Supersolution(), 1e-11, 2000000)
	if !ok {
		t.Fatal("reference failed")
	}
	base := Config{
		Config:  runtime.Config{Op: p, Workers: 6, X0: p.Supersolution(), Tol: 1e-7, MaxUpdatesPerWorker: 666666},
		XStar:   ustar,
		Cost:    UniformCost(1),
		Latency: FixedLatency(0.2),
		Seed:    3,
	}
	allToAll, err := Run(base)
	if err != nil || !allToAll.Converged {
		t.Fatalf("all-to-all failed: %v", err)
	}
	chainCfg := base
	chainCfg.Neighbors = ChainNeighbors(6)
	chain, err := Run(chainCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !chain.Converged {
		t.Fatal("chain topology did not converge on a stencil operator")
	}
	if chain.MessagesSent >= allToAll.MessagesSent {
		t.Errorf("chain sent %d messages, all-to-all %d — expected fewer",
			chain.MessagesSent, allToAll.MessagesSent)
	}
	// Messages per update: chain <= 2, all-to-all = 5.
	perUpdateChain := float64(chain.MessagesSent) / float64(len(chain.Records))
	if perUpdateChain > 2.01 {
		t.Errorf("chain messages per update %v > 2", perUpdateChain)
	}
}

func TestNeighborsOutOfRangeIgnored(t *testing.T) {
	p := obstacle.Membrane(8)
	ustar, ok := operators.FixedPoint(p, p.Supersolution(), 1e-11, 2000000)
	if !ok {
		t.Fatal("reference failed")
	}
	cfg := Config{
		Config:    runtime.Config{Op: p, Workers: 2, X0: p.Supersolution(), Tol: 1e-6, MaxUpdatesPerWorker: 1000000},
		XStar:     ustar,
		Neighbors: [][]int{{1, 7, -2}, {0, 99}}, // junk entries must be ignored
		Seed:      4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge with sanitized topology")
	}
}
