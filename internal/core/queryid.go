// Package core implements WATCHMAN, the data warehouse intelligent cache
// manager of Scheuermann, Shim and Vingralek (VLDB 1996): a cache of whole
// retrieved sets with the LNC-R cache replacement algorithm, the LNC-A cache
// admission algorithm, their combination LNC-RA, the retained-reference-
// information policy of §2.4, and the baseline policies the paper compares
// against (vanilla LRU, LRU-K, and the related-work baselines LFU and LCS).
//
// All time is logical (trace timestamps in seconds); the package never reads
// the wall clock, so every simulation is deterministic.
package core

// idSeparator is the single special character that replaces delimiter runs
// when query IDs are compressed, per §3 of the paper ("the query string
// compressed by substituting all delimiters with a single special
// character").
const idSeparator = '\x1f'

// delimiter marks the query-string delimiter bytes: whitespace, commas,
// parentheses and semicolons. The separator itself is not a delimiter.
var delimiter = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, ',': true, '(': true, ')': true, ';': true}

// FNV-1a, 64 bit. Signature and Canonical must fold identically: shard
// routing, snapshot files and victim tie-breaks all key on the value.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Canonical appends the canonical query ID of query to dst — every run of
// delimiters collapsed into one separator character, leading and trailing
// delimiters trimmed — and returns the extended slice together with the
// signature of the appended bytes, folded in the same pass. It is the
// front of every reference: callers hand in a stack buffer
// (var buf [256]byte; Canonical(buf[:0], q)) so a reference canonicalizes,
// hashes and probes the index without touching the heap; IDs longer than
// the buffer spill through append's ordinary growth. The result equals
// CompressID(query) byte for byte and sig equals Signature of it.
//
//watchman:hotpath
func Canonical(dst []byte, query string) (id []byte, sig uint64) {
	base := len(dst)
	h := uint64(fnvOffset64)
	pendingSep := false
	for i := 0; i < len(query); i++ {
		c := query[i]
		if delimiter[c] {
			pendingSep = len(dst) > base
			continue
		}
		if pendingSep {
			//lint:ignore hotpathalloc appends into caller-provided capacity; growth is the > 256 B fallback
			dst = append(dst, idSeparator)
			h = (h ^ idSeparator) * fnvPrime64
			pendingSep = false
		}
		//lint:ignore hotpathalloc appends into caller-provided capacity; growth is the > 256 B fallback
		dst = append(dst, c)
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return dst, h
}

// CanonicalString returns Canonical's bytes as a string: query itself when
// it was already canonical (so precompressed IDs pass through without a
// copy), a fresh copy otherwise. The result never aliases id.
func CanonicalString(id []byte, query string) string {
	if string(id) == query {
		return query
	}
	return string(id)
}

// CompressID canonicalizes a query string into a query ID by collapsing
// every run of delimiters into one separator character and trimming
// leading/trailing delimiters. Two query strings that differ only in
// whitespace or punctuation spacing therefore map to the same ID.
// Already-canonical strings are returned as they are, without allocating.
func CompressID(query string) string {
	var buf [256]byte
	id, _ := Canonical(buf[:0], query)
	return CanonicalString(id, query)
}

// Signature returns the 64-bit FNV-1a hash of a query ID. The cache's
// lookup structure buckets entries by signature and compares IDs exactly
// only within a bucket, as described in §3 of the paper.
func Signature(id string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * fnvPrime64
	}
	return h
}
