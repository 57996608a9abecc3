package core

import (
	"testing"

	"repro/internal/delay"
)

func TestHistoryBasics(t *testing.T) {
	h := NewHistory([]float64{1, 2})
	if h.Dim() != 2 {
		t.Fatalf("Dim = %d", h.Dim())
	}
	if h.At(0, 0) != 1 || h.At(1, 0) != 2 {
		t.Fatal("initial values wrong")
	}
	h.Set(0, 3, 10)
	h.Set(0, 5, 20)
	cases := []struct {
		l    int
		want float64
	}{
		{0, 1}, {1, 1}, {2, 1}, {3, 10}, {4, 10}, {5, 20}, {100, 20},
	}
	for _, c := range cases {
		if got := h.At(0, c.l); got != c.want {
			t.Errorf("At(0, %d) = %v, want %v", c.l, got, c.want)
		}
	}
	if h.Latest(0) != 20 {
		t.Error("Latest wrong")
	}
	if h.Latest(1) != 2 {
		t.Error("untouched component changed")
	}
	if h.Updates() != 2 {
		t.Errorf("Updates = %d", h.Updates())
	}
}

func TestHistorySnapshot(t *testing.T) {
	h := NewHistory([]float64{0, 0, 0})
	h.Set(0, 1, 1)
	h.Set(1, 2, 2)
	h.Set(2, 3, 3)
	h.Set(0, 4, 4)
	snap2, l, _ := h.Read(delay.Constant{D: 1}, 3, make([]int, 3))
	if l != 2 {
		t.Errorf("Read at iteration 3 returned min label %d, want 2", l)
	}
	if snap2[0] != 1 || snap2[1] != 2 || snap2[2] != 0 {
		t.Errorf("Read at label 2 = %v", snap2)
	}
	latest := h.LatestSnapshot()
	if latest[0] != 4 || latest[1] != 2 || latest[2] != 3 {
		t.Errorf("LatestSnapshot = %v", latest)
	}
}

func TestHistorySameIterationOverwrites(t *testing.T) {
	h := NewHistory([]float64{0})
	h.Set(0, 1, 5)
	h.Set(0, 1, 7)
	if h.Latest(0) != 7 {
		t.Errorf("Latest = %v, want 7", h.Latest(0))
	}
	if h.Updates() != 1 {
		t.Errorf("Updates = %d, want 1", h.Updates())
	}
	if x, _, _ := h.Read(delay.Constant{D: 1}, 2, make([]int, 1)); x[0] != 7 {
		t.Errorf("Read at label 1 = %v, want 7", x[0])
	}
}

// A re-Set the kept read vector no longer walks — of an initial value, or
// of an update older than the last Read's window — reaches the next Read.
func TestHistoryReSetBehindTheWindow(t *testing.T) {
	h := NewHistory([]float64{0, 0})
	row := make([]int, 2)
	h.Set(0, 0, 3)
	if x, _, _ := h.Read(delay.Fresh{}, 1, row); x[0] != 3 || x[1] != 0 {
		t.Errorf("Read after re-setting x_0(0) = %v, want [3 0]", x)
	}
	h.Set(1, 1, 4)
	h.Read(delay.Fresh{}, 2, row)
	h.Set(1, 1, 6)
	if x, _, _ := h.Read(delay.Fresh{}, 2, row); x[0] != 3 || x[1] != 6 {
		t.Errorf("Read after re-setting x_1(1) = %v, want [3 6]", x)
	}
}

func TestHistoryOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h := NewHistory([]float64{0})
	h.Set(0, 5, 1)
	h.Set(0, 3, 2)
}
