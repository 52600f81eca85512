package spill

import (
	"errors"
	"os"
	"testing"

	"dqo/internal/qerr"
	"dqo/internal/storage"
)

// words is the string dictionary every test batch shares: a run carries
// each column's dictionary once, in its first frame, so the batches of one
// run must agree on it — as slices of one executor relation do.
var words = func() *storage.Dict {
	d := storage.NewDict()
	for _, w := range []string{"a", "bb", "ccc"} {
		d.Intern(w)
	}
	return d
}()

func testBatch(lo, n int) *storage.Relation {
	ks := make([]uint32, n)
	vs := make([]int64, n)
	cs := make([]uint32, n)
	for i := range ks {
		ks[i] = uint32(lo + i)
		vs[i] = int64(lo+i) * -3
		cs[i] = uint32((lo + i) % words.Len())
	}
	return storage.MustNewRelation("t",
		storage.NewUint32("k", ks), storage.NewInt64("v", vs), storage.NewStringCodes("s", cs, words))
}

// writeRun spills two frames into a fresh run and returns it with the byte
// offset at which the second frame starts.
func writeRun(t *testing.T) (*Run, int64) {
	t.Helper()
	d, err := NewDir(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Cleanup() })
	w, err := d.NewRun("test")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testBatch(0, 50)); err != nil {
		t.Fatal(err)
	}
	second := w.BytesWritten()
	if err := w.Append(testBatch(50, 30)); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return run, second
}

// readAll drains a run, returning the batches read before the first error.
func readAll(t *testing.T, run *Run) ([]*storage.Relation, error) {
	t.Helper()
	rd, err := run.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var out []*storage.Relation
	for {
		b, err := rd.Next()
		if err != nil || b == nil {
			return out, err
		}
		out = append(out, b)
	}
}

func TestRunRoundTrip(t *testing.T) {
	run, _ := writeRun(t)
	got, err := readAll(t, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].NumRows() != 50 || got[1].NumRows() != 30 {
		t.Fatalf("read %d batches back, want 50 + 30 rows", len(got))
	}
	for i, want := range []*storage.Relation{testBatch(0, 50), testBatch(50, 30)} {
		for _, name := range []string{"k", "v", "s"} {
			gc, wc := got[i].MustColumn(name), want.MustColumn(name)
			for r := 0; r < wc.Len(); r++ {
				if gc.ValueAt(r) != wc.ValueAt(r) {
					t.Fatalf("batch %d column %s row %d: %v, want %v", i, name, r, gc.ValueAt(r), wc.ValueAt(r))
				}
			}
		}
	}
}

// TestRunReaderRejectsCorruption damages a run file on disk and checks that
// the reader reports a typed spill I/O error rather than decoding garbage.
func TestRunReaderRejectsCorruption(t *testing.T) {
	const hdr = 12 // magic, length, crc32
	for _, tc := range []struct {
		name   string
		damage func(b []byte, second int64) []byte
		good   int // intact frames read before the failure
	}{
		// The first frame's last payload byte is a column value: without the
		// checksum it would decode cleanly to a wrong row.
		{"payload-byte", func(b []byte, second int64) []byte { b[second-1] ^= 0x40; return b }, 0},
		{"magic", func(b []byte, second int64) []byte { b[second] ^= 0xff; return b }, 1},
		{"truncated-payload", func(b []byte, _ int64) []byte { return b[:len(b)-5] }, 1},
		{"truncated-header", func(b []byte, second int64) []byte { return b[:second+hdr/2] }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, second := writeRun(t)
			b, err := os.ReadFile(run.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(run.path, tc.damage(b, second), 0o600); err != nil {
				t.Fatal(err)
			}
			got, err := readAll(t, run)
			if !errors.Is(err, qerr.ErrSpillIO) {
				t.Fatalf("Next returned %v, want ErrSpillIO", err)
			}
			if len(got) != tc.good {
				t.Fatalf("read %d intact frames before the error, want %d", len(got), tc.good)
			}
		})
	}
}
