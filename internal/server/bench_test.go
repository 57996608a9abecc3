package server

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
)

// BenchmarkServeMix is the serve-mix shape of the repository benchmark as a
// Go benchmark, so a served job can be CPU-profiled: 2 closed-loop clients
// push 12 jobs (lasso, ridge and routing at n=64, model engine, four seeds
// each) through a real HTTP server per op. The per-job CPU table in doc.go
// and the README comes from
//
//	go test ./internal/server -run '^$' -bench ServeMix -benchtime 150x -cpuprofile cpu.prof
//	go tool pprof -top -cum server.test cpu.prof
//
// reading the cumulative time under repro.BuildScenarioTuned (build),
// repro.Solve (solve), Encoder.Encode (encode) and json.Unmarshal under
// Client.Solve (decode), the rest being HTTP, scheduling and GC.
func BenchmarkServeMix(b *testing.B) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL, HTTP: ts.Client()}
	var jobs []JobRequest
	for seed := uint64(1); seed <= 4; seed++ {
		for _, scenario := range []string{"lasso", "ridge", "routing"} {
			jobs = append(jobs, JobRequest{Scenario: scenario, N: 64, Seed: seed, Engine: "model"})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for client := 0; client < 2; client++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := client; k < len(jobs); k += 2 {
					out, err := c.Solve(context.Background(), jobs[k])
					if err != nil || out.Report == nil || !out.Report.Converged {
						b.Errorf("job %d: %+v, %v", k, out, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
