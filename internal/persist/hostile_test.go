package persist

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
)

// encodeSample produces a small valid snapshot for corruption tests.
func encodeSample(t testing.TB) []byte {
	c, err := core.New(core.Config{Capacity: 1 << 20, K: 2, Policy: core.LNCRA})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"alpha", "beta", "gamma"} {
		c.Reference(core.Request{QueryID: id, Time: float64(i + 1), Size: 100, Cost: 10,
			Relations: []string{"rel"}, Payload: []byte("payload-" + id)})
	}
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Clock: c.Clock(), Shards: []*core.CacheState{c.ExportState()}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadBadMagic(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("x"), []byte("WMTRACE1"), []byte("NOTASNAPSHOT")} {
		if _, err := Read(bytes.NewReader(in)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("input %q: err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestReadBadVersion(t *testing.T) {
	raw := encodeSample(t)
	raw = append([]byte(nil), raw...)
	raw[len(magic)] = '9'
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// TestReadTruncated cuts the stream at EVERY byte offset: no prefix of a
// valid snapshot may decode successfully (the explicit end section makes
// even section-boundary cuts detectable), and none may panic.
func TestReadTruncated(t *testing.T) {
	raw := encodeSample(t)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at byte %d of %d decoded successfully", cut, len(raw))
		}
	}
	if _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("untruncated stream must decode: %v", err)
	}
}

// TestReadCorruptCRC flips one bit in every section payload byte in turn;
// every flip must be caught (by the CRC, or by a framing error when the
// flip lands in a length) and reported as corruption, never decoded.
func TestReadCorruptCRC(t *testing.T) {
	raw := encodeSample(t)
	for off := len(magic) + 1; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		snap, err := Read(bytes.NewReader(mut))
		if err == nil {
			// A flip inside the end-section trailer could in principle
			// still frame correctly; anything that decodes must at least
			// carry the same content as the original.
			var re bytes.Buffer
			if werr := Write(&re, snap); werr != nil || !bytes.Equal(re.Bytes(), raw) {
				t.Fatalf("flip at byte %d decoded DIFFERENT content without error", off)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("flip at byte %d: unexpected error type %v", off, err)
		}
	}
}

func TestReadTrailingGarbageSection(t *testing.T) {
	raw := encodeSample(t)
	// An unknown section kind before the end marker must be rejected, not
	// skipped: skipping would let corruption masquerade as forward
	// compatibility within a version.
	idx := bytes.LastIndexByte(raw[:len(raw)-5], sectionEnd)
	_ = idx
	mut := append([]byte(nil), raw...)
	// Rewrite the end-section kind byte (5 bytes from the end: kind +
	// len(0) + crc32) to a bogus kind.
	mut[len(mut)-6] = 0x7f
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown section kind: err = %v, want ErrCorrupt", err)
	}
}

// FuzzRead feeds arbitrary bytes through the decoder: it must never
// panic, and every failure must map to the package's error taxonomy.
func FuzzRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("WMSNAP1"))
	raw := encodeSample(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	mut := append([]byte(nil), raw...)
	mut[len(mut)/3] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err == nil {
			// Whatever decodes must re-encode: the accepted subset of the
			// format is closed under the writer.
			if werr := Write(&bytes.Buffer{}, snap); werr != nil {
				t.Fatalf("decoded snapshot fails to re-encode: %v", werr)
			}
			return
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error outside the taxonomy: %v", err)
		}
	})
}
