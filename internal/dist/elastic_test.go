package dist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckpointFileRoundTrip: what writeCheckpointFile writes,
// readCheckpointFile returns bit for bit, a rewrite replaces it, and the
// temp file the write goes through is gone afterwards.
func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for _, x := range [][]float64{
		{1.5, -2.25, 0, math.Copysign(0, -1), math.Inf(1), 5e-324, math.MaxFloat64},
		{3, 2, 1},
		{},
	} {
		if err := writeCheckpointFile(path, x); err != nil {
			t.Fatal(err)
		}
		got, err := readCheckpointFile(path, len(x))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(x) {
			t.Fatalf("read %d values, wrote %d", len(got), len(x))
		}
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Errorf("value %d: read %v, wrote %v", i, got[i], x[i])
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
			t.Fatalf("directory after a write holds %v, want only run.ckpt", entries)
		}
	}
	if err := writeCheckpointFile(filepath.Join(dir, "no-such-dir", "run.ckpt"), []float64{1}); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

// TestReadCheckpointFileRejectsCorrupt: a missing file is "no checkpoint",
// not an error; every file that is not exactly magic + dimension + that many
// values for the run's dimension is an error and yields no iterate.
func TestReadCheckpointFileRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if x, err := readCheckpointFile(filepath.Join(dir, "absent.ckpt"), 3); x != nil || err != nil {
		t.Fatalf("missing file: (%v, %v), want (nil, nil)", x, err)
	}

	good := filepath.Join(dir, "good.ckpt")
	want := []float64{1, 2, 3}
	if err := writeCheckpointFile(good, want); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := len(checkpointMagic) + 4

	nanPath := filepath.Join(dir, "nan.ckpt")
	if err := writeCheckpointFile(nanPath, []float64{1, math.NaN(), 3}); err != nil {
		t.Fatal(err)
	}
	withNaN, err := os.ReadFile(nanPath)
	if err != nil {
		t.Fatal(err)
	}

	wrongMagic := append([]byte(nil), valid...)
	wrongMagic[0] ^= 0xff
	lyingDim := append([]byte(nil), valid...)
	lyingDim[len(checkpointMagic)] = 2 // header says 2, three values follow

	for _, tc := range []struct {
		name string
		data []byte
		n    int
	}{
		{"empty file", nil, 3},
		{"wrong magic", wrongMagic, 3},
		{"magic alone", valid[:len(checkpointMagic)], 3},
		{"header cut inside the dimension", valid[:headerLen-1], 3},
		{"another run's dimension", valid, 4},
		{"header dimension disagrees with the values", lyingDim, 2},
		{"header dimension disagrees with the run", lyingDim, 3},
		{"missing value bytes", valid[:len(valid)-1], 3},
		{"missing a whole value", valid[:len(valid)-8], 3},
		{"no values", valid[:headerLen], 3},
		{"trailing byte", append(append([]byte(nil), valid...), 0), 3},
		{"trailing value", append(append([]byte(nil), valid...), make([]byte, 8)...), 3},
		{"a NaN among the values", withNaN, 3},
	} {
		path := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if x, err := readCheckpointFile(path, tc.n); err == nil || x != nil {
			t.Errorf("%s: (%v, %v), want an error and no iterate", tc.name, x, err)
		}
	}

	// A directory in the file's place is an I/O error, not "no checkpoint".
	if x, err := readCheckpointFile(dir, 3); err == nil || x != nil {
		t.Errorf("directory: (%v, %v), want an error", x, err)
	}
	if got, err := readCheckpointFile(good, 3); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("intact file: (%v, %v), want %v", got, err, want)
	}
}

// FuzzReadCheckpointFile: the checkpoint decoder never panics on any file,
// and a file it accepts is exactly one writeCheckpointFile would write — n
// values, none NaN, the same bytes back.
func FuzzReadCheckpointFile(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.ckpt")
	valid := func(x []float64) []byte {
		if err := writeCheckpointFile(path, x); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	three := valid([]float64{1.5, math.Inf(1), -2})
	f.Add([]byte(nil), uint16(3))
	f.Add([]byte(checkpointMagic), uint16(3))
	f.Add(three, uint16(4)) // wrong dimension
	f.Add(three[:len(three)-1], uint16(3))
	f.Add(append(append([]byte(nil), three...), 0), uint16(3))
	f.Add(three, uint16(3))
	f.Add(valid([]float64{1, math.NaN(), 3}), uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		x, err := readCheckpointFile(path, int(n))
		if err != nil {
			if x != nil {
				t.Fatalf("rejected file still yielded an iterate: %v", x)
			}
			return
		}
		if len(x) != int(n) {
			t.Fatalf("accepted %d values for a run of dimension %d", len(x), n)
		}
		for i, v := range x {
			if v != v {
				t.Fatalf("accepted a NaN at %d", i)
			}
		}
		if err := writeCheckpointFile(path, x); err != nil {
			t.Fatal(err)
		}
		back, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted file is not what writeCheckpointFile writes: %x vs %x", data, back)
		}
	})
}
