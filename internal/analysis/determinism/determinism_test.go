package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), determinism.Analyzer,
		"repro/internal/core", "repro/internal/delay", "repro/internal/trace", "repro", "a")
}
