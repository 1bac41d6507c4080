// Package persist is the snapshot subsystem of the WATCHMAN reproduction:
// a versioned binary codec that captures the full learned state of a
// cache — resident entries with their payloads, retained reference
// histories and λ-estimator context from internal/core, and the adaptive
// admission tuner's published θ plus the outcomes of its open window from
// internal/admission — so a restarted server resumes serving warm
// instead of rebuilding its reference history from zero ("don't trash
// your intermediate results").
//
// # File format
//
//	magic    [6]byte  "WMSNAP"
//	version  byte     '1'
//	sections          one or more, each:
//	  kind     byte     (meta / cache / admission / end)
//	  length   uvarint  payload byte count
//	  payload  []byte
//	  crc      uint32LE IEEE CRC-32 of the payload
//
// Every section is independently CRC-checked, so corruption is localized
// to a section and reported as ErrCorrupt rather than decoded into bad
// cache state. The stream ends with an explicit end section: a file
// truncated at a section boundary — which would otherwise parse as a
// valid, quietly shorter snapshot — fails loudly. Within payloads,
// integers are varints, floats are IEEE-754 bit patterns in uvarints, and
// strings are length-prefixed bytes with dictionary interning (relation
// names and query templates repeat heavily across entries).
//
// # What is and is not captured
//
// A snapshot captures learned state: entries, reference windows, Stats,
// the λ context, θ and the pending tuning window. It does not capture
// configuration (capacity, K, policy, shard count come from the restoring
// process and are only echoed for mismatch reporting), telemetry registry
// counters (restart cold), or the admission tuner's shadow caches (they
// re-warm from live traffic; the slow-moving EMA scores that pick θ are
// what survives).
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
)

const (
	magic   = "WMSNAP"
	version = '1'
)

// Section kinds.
const (
	sectionEnd       = 0x00 // terminates the stream; empty payload
	sectionMeta      = 0x01 // shard count + capture clock
	sectionCache     = 0x02 // one shard's core.CacheState
	sectionAdmission = 0x03 // adaptive tuner state
)

// Payload encodings. The cache stores payloads as opaque `any` values;
// the codec persists the concrete types the serving stack produces and
// fails loudly on anything else rather than silently resurrecting an
// entry without its data.
const (
	payloadNil    = 0x00 // no payload stored
	payloadBytes  = 0x01 // []byte, stored raw
	payloadString = 0x02 // string, stored raw
	payloadJSON   = 0x03 // anything else JSON-encodable (HTTP payloads)
	payloadResult = 0x04 // *engine.Result, JSON-encoded, type restored
)

var (
	// ErrBadMagic is returned when decoding data that is not a snapshot.
	ErrBadMagic = errors.New("persist: bad magic; not a WMSNAP snapshot")
	// ErrBadVersion is returned for snapshots of an unknown codec version
	// (newer than this reader).
	ErrBadVersion = errors.New("persist: unsupported snapshot version")
	// ErrCorrupt is returned when the stream is truncated, structurally
	// invalid, or fails a section CRC check.
	ErrCorrupt = errors.New("persist: corrupt snapshot")
)

// Snapshot is the in-memory form of one snapshot file: one CacheState per
// shard (a single-threaded cache is a one-shard snapshot) plus the
// optional adaptive admission state.
type Snapshot struct {
	// Clock is the largest logical time across shards at capture.
	Clock float64
	// Shards holds each shard's state, in shard order.
	Shards []*core.CacheState
	// Admission carries the adaptive tuner's state, nil when the captured
	// cache ran a static admission policy.
	Admission *admission.TunerState
}

// sectionWriter accumulates one section's payload with string interning.
// The interning scheme matches the trace codec's dictWriter (0 introduces
// a string inline, n>0 references the (n−1)-th interned one), but the two
// are not shared code: trace streams straight to a bufio.Writer with
// per-call errors and a byte-pinned v1/v2 format, while sections here
// buffer for CRC framing and use fixed-width floats.
type sectionWriter struct {
	buf  bytes.Buffer
	dict map[string]uint64
}

func (w *sectionWriter) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	w.buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func (w *sectionWriter) varint(v int64) {
	var tmp [binary.MaxVarintLen64]byte
	w.buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

// float writes a fixed 8-byte little-endian IEEE-754 value. Real floats
// (timestamps, costs, θ) have high exponent bits set, so varint-encoding
// their bit patterns would cost 9-10 bytes each — fixed width is both
// smaller and faster for the float-heavy entry metadata.
func (w *sectionWriter) float(f float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	w.buf.Write(tmp[:])
}

func (w *sectionWriter) bool(b bool) {
	if b {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

// str writes a dictionary-interned string: index 0 introduces a new
// string inline, n>0 references the (n−1)-th interned string. The
// dictionary spans sections (it belongs to the whole stream) — sections
// are CRC-isolated for integrity, not decoded independently.
func (w *sectionWriter) str(s string) {
	if idx, ok := w.dict[s]; ok {
		w.uvarint(idx + 1)
		return
	}
	w.dict[s] = uint64(len(w.dict))
	w.uvarint(0)
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *sectionWriter) blob(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf.Write(b)
}

// decodePayload inverts encoder.writePayload. JSON payloads decode to the
// generic any shape (maps, slices, float64 numbers) — the same shape the
// HTTP server stored in the first place.
func decodePayload(tag byte, data []byte) (any, error) {
	switch tag {
	case payloadNil:
		return nil, nil
	case payloadBytes:
		return data, nil
	case payloadString:
		return string(data), nil
	case payloadResult:
		res := &engine.Result{}
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("%w: engine result payload: %v", ErrCorrupt, err)
		}
		return res, nil
	case payloadJSON:
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, fmt.Errorf("%w: JSON payload: %v", ErrCorrupt, err)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("%w: unknown payload tag 0x%02x", ErrCorrupt, tag)
	}
}

func writeStats(w *sectionWriter, s core.Stats) {
	w.varint(s.References)
	w.varint(s.Hits)
	w.varint(s.DerivedHits)
	w.float(s.CostTotal)
	w.float(s.CostSaved)
	w.float(s.DeriveCost)
	w.varint(s.BytesServed)
	w.varint(s.Admissions)
	w.varint(s.Rejections)
	w.varint(s.Evictions)
	w.varint(s.Invalidations)
	w.varint(s.ExternalMisses)
	w.varint(s.RetainedDropped)
	w.varint(s.FragSamples)
	w.float(s.FragSum)
}

func writeAdmission(w *sectionWriter, st *admission.TunerState) {
	w.float(st.Theta)
	w.uvarint(uint64(len(st.Arms)))
	for _, a := range st.Arms {
		w.float(a.Theta)
		w.float(a.Score)
		w.bool(a.Seeded)
	}
	w.uvarint(uint64(len(st.Samples)))
	for i := range st.Samples {
		s := &st.Samples[i]
		w.str(s.ID)
		w.uvarint(s.Sig)
		w.varint(s.Size)
		w.float(s.Cost)
		w.float(s.Time)
		w.uvarint(uint64(len(s.Relations)))
		for _, r := range s.Relations {
			w.str(r)
		}
	}
}

// sectionReader decodes one section's payload, sharing the stream-wide
// string dictionary.
type sectionReader struct {
	buf  *bytes.Reader
	dict *[]string
}

func (r *sectionReader) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(r.buf)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func (r *sectionReader) varint() (int64, error) {
	v, err := binary.ReadVarint(r.buf)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func (r *sectionReader) float() (float64, error) {
	var tmp [8]byte
	if _, err := io.ReadFull(r.buf, tmp[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}

func (r *sectionReader) bool() (bool, error) {
	b, err := r.buf.ReadByte()
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("%w: bad bool byte 0x%02x", ErrCorrupt, b)
	}
}

func (r *sectionReader) str() (string, error) {
	idx, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if idx > 0 {
		i := idx - 1
		if i >= uint64(len(*r.dict)) {
			return "", fmt.Errorf("%w: string index %d out of range", ErrCorrupt, i)
		}
		return (*r.dict)[i], nil
	}
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.buf.Len()) {
		return "", fmt.Errorf("%w: string length %d exceeds section", ErrCorrupt, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.buf, b); err != nil {
		return "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s := string(b)
	*r.dict = append(*r.dict, s)
	return s, nil
}

func (r *sectionReader) blob() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(r.buf.Len()) {
		return nil, fmt.Errorf("%w: blob length %d exceeds section", ErrCorrupt, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.buf, b); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return b, nil
}

func readStats(r *sectionReader) (core.Stats, error) {
	var s core.Stats
	var err error
	read := func(dst *int64) {
		if err == nil {
			*dst, err = r.varint()
		}
	}
	readF := func(dst *float64) {
		if err == nil {
			*dst, err = r.float()
		}
	}
	read(&s.References)
	read(&s.Hits)
	read(&s.DerivedHits)
	readF(&s.CostTotal)
	readF(&s.CostSaved)
	readF(&s.DeriveCost)
	read(&s.BytesServed)
	read(&s.Admissions)
	read(&s.Rejections)
	read(&s.Evictions)
	read(&s.Invalidations)
	read(&s.ExternalMisses)
	read(&s.RetainedDropped)
	read(&s.FragSamples)
	readF(&s.FragSum)
	return s, err
}

func readEntry(r *sectionReader) (core.EntryState, error) {
	var es core.EntryState
	var err error
	if es.ID, err = r.str(); err != nil {
		return es, err
	}
	if es.Resident, err = r.bool(); err != nil {
		return es, err
	}
	if es.Size, err = r.varint(); err != nil {
		return es, err
	}
	if es.Cost, err = r.float(); err != nil {
		return es, err
	}
	cls, err := r.varint()
	if err != nil {
		return es, err
	}
	es.Class = int(cls)
	nrel, err := r.uvarint()
	if err != nil {
		return es, err
	}
	if nrel > 1<<16 {
		return es, fmt.Errorf("%w: unreasonable relation count %d", ErrCorrupt, nrel)
	}
	for j := uint64(0); j < nrel; j++ {
		rel, err := r.str()
		if err != nil {
			return es, err
		}
		es.Relations = append(es.Relations, rel)
	}
	nref, err := r.uvarint()
	if err != nil {
		return es, err
	}
	if nref > 1<<16 {
		return es, fmt.Errorf("%w: unreasonable reference-window size %d", ErrCorrupt, nref)
	}
	for j := uint64(0); j < nref; j++ {
		t, err := r.float()
		if err != nil {
			return es, err
		}
		es.RefTimes = append(es.RefTimes, t)
	}
	if es.TotalRefs, err = r.varint(); err != nil {
		return es, err
	}
	tag, err := r.buf.ReadByte()
	if err != nil {
		return es, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	data, err := r.blob()
	if err != nil {
		return es, err
	}
	if es.Payload, err = decodePayload(tag, data); err != nil {
		return es, err
	}
	hasPlan, err := r.bool()
	if err != nil {
		return es, err
	}
	if hasPlan {
		b, err := r.blob()
		if err != nil {
			return es, err
		}
		p := &engine.Descriptor{}
		if err := json.Unmarshal(b, p); err != nil {
			return es, fmt.Errorf("%w: plan of entry %q: %v", ErrCorrupt, es.ID, err)
		}
		if err := p.Validate(); err != nil {
			return es, fmt.Errorf("%w: plan of entry %q: %v", ErrCorrupt, es.ID, err)
		}
		es.Plan = p
	}
	return es, nil
}

func readCacheState(r *sectionReader) (int, *core.CacheState, error) {
	idx, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	st := &core.CacheState{}
	if st.Capacity, err = r.varint(); err != nil {
		return 0, nil, err
	}
	k, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	st.K = int(k)
	pk, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	st.Policy = core.PolicyKind(pk)
	if st.Clock, err = r.float(); err != nil {
		return 0, nil, err
	}
	if st.FirstTime, err = r.float(); err != nil {
		return 0, nil, err
	}
	if st.HaveFirst, err = r.bool(); err != nil {
		return 0, nil, err
	}
	if st.MinDt, err = r.float(); err != nil {
		return 0, nil, err
	}
	msp, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	st.MissesSincePrune = int(msp)
	if st.Stats, err = readStats(r); err != nil {
		return 0, nil, err
	}
	count, err := r.uvarint()
	if err != nil {
		return 0, nil, err
	}
	if count > 1<<28 {
		return 0, nil, fmt.Errorf("%w: unreasonable entry count %d", ErrCorrupt, count)
	}
	st.Entries = make([]core.EntryState, 0, count)
	for j := uint64(0); j < count; j++ {
		es, err := readEntry(r)
		if err != nil {
			return 0, nil, err
		}
		st.Entries = append(st.Entries, es)
	}
	return int(idx), st, nil
}

func readAdmission(r *sectionReader) (*admission.TunerState, error) {
	st := &admission.TunerState{}
	var err error
	if st.Theta, err = r.float(); err != nil {
		return nil, err
	}
	narm, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if narm > 1<<12 {
		return nil, fmt.Errorf("%w: unreasonable candidate count %d", ErrCorrupt, narm)
	}
	for j := uint64(0); j < narm; j++ {
		var a admission.ArmState
		if a.Theta, err = r.float(); err != nil {
			return nil, err
		}
		if a.Score, err = r.float(); err != nil {
			return nil, err
		}
		if a.Seeded, err = r.bool(); err != nil {
			return nil, err
		}
		st.Arms = append(st.Arms, a)
	}
	nsamp, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nsamp > 1<<24 {
		return nil, fmt.Errorf("%w: unreasonable sample count %d", ErrCorrupt, nsamp)
	}
	for j := uint64(0); j < nsamp; j++ {
		var s admission.Sample
		if s.ID, err = r.str(); err != nil {
			return nil, err
		}
		if s.Sig, err = r.uvarint(); err != nil {
			return nil, err
		}
		if s.Size, err = r.varint(); err != nil {
			return nil, err
		}
		if s.Cost, err = r.float(); err != nil {
			return nil, err
		}
		if s.Time, err = r.float(); err != nil {
			return nil, err
		}
		nrel, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nrel > 1<<16 {
			return nil, fmt.Errorf("%w: unreasonable relation count %d", ErrCorrupt, nrel)
		}
		for k := uint64(0); k < nrel; k++ {
			rel, err := r.str()
			if err != nil {
				return nil, err
			}
			s.Relations = append(s.Relations, rel)
		}
		st.Samples = append(st.Samples, s)
	}
	return st, nil
}

// Read decodes a snapshot from r, verifying the magic, version and every
// section CRC. It fails with ErrBadMagic / ErrBadVersion / ErrCorrupt
// rather than ever returning partially decoded state.
func Read(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("%w: %q", ErrBadVersion, string(head[len(magic)]))
	}

	snap := &Snapshot{}
	dict := make([]string, 0, 64)
	declaredShards := -1
	sawMeta, sawEnd := false, false
	for !sawEnd {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: missing end section: %v", ErrCorrupt, err)
		}
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: section length: %v", ErrCorrupt, err)
		}
		if plen > 1<<32 {
			return nil, fmt.Errorf("%w: unreasonable section length %d", ErrCorrupt, plen)
		}
		// Stream the payload rather than pre-allocating plen bytes: a
		// corrupted length field must fail at the truncation point, not
		// commit a huge allocation first.
		var pb bytes.Buffer
		if _, err := io.CopyN(&pb, br, int64(plen)); err != nil {
			return nil, fmt.Errorf("%w: section payload: %v", ErrCorrupt, err)
		}
		payload := pb.Bytes()
		var crcb [4]byte
		if _, err := io.ReadFull(br, crcb[:]); err != nil {
			return nil, fmt.Errorf("%w: section checksum: %v", ErrCorrupt, err)
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcb[:]); got != want {
			return nil, fmt.Errorf("%w: section 0x%02x checksum mismatch (%08x != %08x)", ErrCorrupt, kind, got, want)
		}
		sr := &sectionReader{buf: bytes.NewReader(payload), dict: &dict}
		switch kind {
		case sectionEnd:
			sawEnd = true
		case sectionMeta:
			if sawMeta {
				return nil, fmt.Errorf("%w: duplicate meta section", ErrCorrupt)
			}
			sawMeta = true
			n, err := sr.uvarint()
			if err != nil {
				return nil, err
			}
			if n > 1<<16 {
				return nil, fmt.Errorf("%w: unreasonable shard count %d", ErrCorrupt, n)
			}
			declaredShards = int(n)
			if snap.Clock, err = sr.float(); err != nil {
				return nil, err
			}
		case sectionCache:
			idx, st, err := readCacheState(sr)
			if err != nil {
				return nil, err
			}
			if idx != len(snap.Shards) {
				return nil, fmt.Errorf("%w: shard section %d out of order (want %d)", ErrCorrupt, idx, len(snap.Shards))
			}
			snap.Shards = append(snap.Shards, st)
		case sectionAdmission:
			if snap.Admission != nil {
				return nil, fmt.Errorf("%w: duplicate admission section", ErrCorrupt)
			}
			if snap.Admission, err = readAdmission(sr); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown section kind 0x%02x", ErrCorrupt, kind)
		}
		if sr.buf.Len() != 0 && kind != sectionEnd {
			return nil, fmt.Errorf("%w: section 0x%02x has %d trailing bytes", ErrCorrupt, kind, sr.buf.Len())
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("%w: missing meta section", ErrCorrupt)
	}
	if declaredShards != len(snap.Shards) {
		return nil, fmt.Errorf("%w: meta declares %d shards, stream carries %d", ErrCorrupt, declaredShards, len(snap.Shards))
	}
	return snap, nil
}
