package benchsuite

import (
	"bytes"
	"testing"
	"time"
)

// TestMicroCasesMeasure runs every micro case once and checks the capture
// pipeline end to end: measure -> envelope -> JSON -> parse.
func TestMicroCasesMeasure(t *testing.T) {
	if testing.Short() {
		t.Skip("micro measurement skipped in -short mode")
	}
	var results []Result
	for _, c := range MicroCases() {
		r := Measure(c, 0) // one repetition per case
		if r.Err != "" {
			t.Errorf("%s: %s", c.Name, r.Err)
			continue
		}
		if r.Iterations < 1 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible measurement %+v", c.Name, r)
		}
		if c.UnitsPerOp > 0 && r.SolveRate <= 0 {
			t.Errorf("%s: missing solve rate", c.Name)
		}
		results = append(results, r)
	}

	f := NewFile("testrev", time.Second, results)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	parsed, err := ReadFile(&buf)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if parsed.Revision != "testrev" || parsed.SchemaVersion != SchemaVersion {
		t.Errorf("round trip lost envelope: %+v", parsed)
	}
	if len(parsed.Results) != len(results) {
		t.Errorf("round trip lost results: %d != %d", len(parsed.Results), len(results))
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	if _, err := ReadFile(bytes.NewBufferString(`{"schema_version": 99}`)); err == nil {
		t.Error("want schema version error")
	}
}

func TestRevisionNeverEmpty(t *testing.T) {
	if Revision() == "" {
		t.Error("Revision must fall back to a non-empty label")
	}
}
