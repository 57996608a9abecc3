package benchsuite

import (
	"strings"
	"testing"
)

func captureWith(results ...Result) *File {
	return &File{SchemaVersion: SchemaVersion, Revision: "test", Results: results}
}

func pair(name string, blockRate, perCompRate float64) []Result {
	return []Result{
		{Name: name, Kind: "micro", SolveRate: blockRate},
		{Name: name + PerComponentSuffix, Kind: "micro", SolveRate: perCompRate},
	}
}

func TestBlockEvalSpeedups(t *testing.T) {
	f := captureWith(append(pair("BlockEvalN1024", 4000, 1000),
		Result{Name: "BlockEvalOrphan", SolveRate: 7}, // no PerComponent partner
		Result{Name: "GramAssemble256", SolveRate: 9}, // not a BlockEval case
	)...)
	got := BlockEvalSpeedups(f)
	if len(got) != 1 {
		t.Fatalf("want 1 pair, got %d: %+v", len(got), got)
	}
	if got[0].Name != "BlockEvalN1024" || got[0].Multiple != 4 {
		t.Errorf("unexpected speedup: %+v", got[0])
	}
}

func TestCompareBlockEvalPassesWithinTolerance(t *testing.T) {
	baseline := captureWith(pair("BlockEvalN1024", 4000, 1000)...) // 4.0x
	current := captureWith(pair("BlockEvalN1024", 3400, 1000)...)  // 3.4x > 4.0*0.8
	lines, err := CompareBlockEval(baseline, current, 0.2)
	if err != nil {
		t.Fatalf("unexpected failure: %v\n%s", err, strings.Join(lines, "\n"))
	}
}

func TestCompareBlockEvalFailsOnRegression(t *testing.T) {
	baseline := captureWith(pair("BlockEvalN1024", 4000, 1000)...) // 4.0x
	current := captureWith(pair("BlockEvalN1024", 3000, 1000)...)  // 3.0x < 3.2x floor
	_, err := CompareBlockEval(baseline, current, 0.2)
	if err == nil {
		t.Fatal("expected a regression failure")
	}
	if !strings.Contains(err.Error(), "BlockEvalN1024") {
		t.Errorf("error should name the regressed case: %v", err)
	}
}

func TestCompareBlockEvalNewCaseIsNotARegression(t *testing.T) {
	baseline := captureWith(pair("BlockEvalN1024", 4000, 1000)...)
	current := captureWith(append(pair("BlockEvalN1024", 4000, 1000),
		pair("BlockEvalN8192", 9000, 1000)...)...)
	lines, err := CompareBlockEval(baseline, current, 0.2)
	if err != nil {
		t.Fatalf("new case must not fail the gate: %v", err)
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "BlockEvalN8192") && strings.Contains(l, "no baseline") {
			found = true
		}
	}
	if !found {
		t.Errorf("new case should be reported as baseline-less:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCompareBlockEvalFailsWhenBaselinePairVanishes(t *testing.T) {
	baseline := captureWith(append(pair("BlockEvalN1024", 4000, 1000),
		pair("BlockEvalN4096", 9000, 1000)...)...)
	current := captureWith(pair("BlockEvalN1024", 4000, 1000)...)
	_, err := CompareBlockEval(baseline, current, 0.2)
	if err == nil {
		t.Fatal("a vanished baseline pair must fail the gate")
	}
	if !strings.Contains(err.Error(), "BlockEvalN4096") || !strings.Contains(err.Error(), "missing") {
		t.Errorf("error should name the vanished case: %v", err)
	}
}

func TestCompareBlockEvalNoCommonPairs(t *testing.T) {
	baseline := captureWith(Result{Name: "GramAssemble256", SolveRate: 9})
	current := captureWith(pair("BlockEvalN1024", 4000, 1000)...)
	if _, err := CompareBlockEval(baseline, current, 0.2); err == nil {
		t.Fatal("expected an error when no pairs are comparable")
	}
}
