package benchsuite

import "testing"

// RunBenchmark adapts a Case to a `go test -bench` benchmark: Setup and one
// warm-up run happen outside the timed region, so ns/op measures the op,
// not workload generation.
func RunBenchmark(b *testing.B, c Case) {
	b.Helper()
	op, err := c.Setup()
	if err != nil {
		b.Fatal(err)
	}
	if err := op(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// RunNamed runs the micro case with the given name (helper for delegating
// named benchmarks in bench files).
func RunNamed(b *testing.B, name string) {
	b.Helper()
	for _, c := range MicroCases() {
		if c.Name == name {
			RunBenchmark(b, c)
			return
		}
	}
	b.Fatalf("benchsuite: unknown micro case %q", name)
}
