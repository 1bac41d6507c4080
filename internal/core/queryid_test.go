package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCompressID(t *testing.T) {
	tests := []struct {
		name  string
		in    string
		want  string
		equal string // another raw string that must compress identically
	}{
		{
			name:  "spaces collapse",
			in:    "select  *   from t",
			want:  "select\x1f*\x1ffrom\x1ft",
			equal: "select * from t",
		},
		{
			name: "mixed delimiters collapse",
			in:   "select a, b from t;",
			want: "select\x1fa\x1fb\x1ffrom\x1ft",
		},
		{
			name: "parens are delimiters",
			in:   "count(*)",
			want: "count\x1f*",
		},
		{
			name: "leading and trailing trimmed",
			in:   "  select 1  ",
			want: "select\x1f1",
		},
		{
			name: "tabs and newlines",
			in:   "select\t1\nfrom\r\nt",
			want: "select\x1f1\x1ffrom\x1ft",
		},
		{name: "empty", in: "", want: ""},
		{name: "only delimiters", in: " ,;() ", want: ""},
		{name: "no delimiters", in: "abc", want: "abc"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := CompressID(tc.in)
			if got != tc.want {
				t.Errorf("CompressID(%q) = %q, want %q", tc.in, got, tc.want)
			}
			if tc.equal != "" && CompressID(tc.equal) != got {
				t.Errorf("CompressID(%q) != CompressID(%q)", tc.equal, tc.in)
			}
		})
	}
}

func TestCompressIDIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := CompressID(s)
		return CompressID(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressIDNeverContainsDelimiters(t *testing.T) {
	f := func(s string) bool {
		return !strings.ContainsAny(CompressID(s), " \t\n\r,();")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressIDDistinguishesTokens(t *testing.T) {
	// Collapsing must not merge distinct tokens into one.
	a := CompressID("select ab")
	b := CompressID("select a b")
	if a == b {
		t.Fatalf("token boundary lost: %q == %q", a, b)
	}
}

func TestSignatureDeterministic(t *testing.T) {
	if Signature("abc") != Signature("abc") {
		t.Fatal("signature is not deterministic")
	}
	if Signature("abc") == Signature("abd") {
		t.Fatal("trivially distinct strings collide (FNV-1a should separate them)")
	}
}

func TestSignatureKnownValue(t *testing.T) {
	// FNV-1a of the empty string is the offset basis.
	if got := Signature(""); got != 14695981039346656037 {
		t.Fatalf("Signature(\"\") = %d, want FNV-1a offset basis", got)
	}
}

func TestSignatureSpread(t *testing.T) {
	// Signatures of similar query strings should not cluster: check that
	// 1000 generated IDs produce close to 1000 distinct signatures.
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		seen[Signature(CompressID("select sum(x) from t where k = "+strings.Repeat("i", i%7)+string(rune('a'+i%26))))] = true
	}
	if len(seen) < 170 { // IDs themselves repeat (7×26 distinct), all must hash apart
		t.Fatalf("only %d distinct signatures", len(seen))
	}
}

// builderCompressID is CompressID as it was before the one-pass front: a
// second walk through a strings.Builder with the delimiters spelled out as
// a switch. Kept as the oracle Canonical is fuzzed against, since
// CompressID itself now runs Canonical's loop.
func builderCompressID(query string) string {
	var b strings.Builder
	pendingSep := false
	for i := 0; i < len(query); i++ {
		switch c := query[i]; c {
		case ' ', '\t', '\n', '\r', ',', '(', ')', ';':
			pendingSep = b.Len() > 0
		default:
			if pendingSep {
				b.WriteByte('\x1f')
				pendingSep = false
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// FuzzCanonical checks the front's one loop against the two-pass
// definition for any input: the bytes it appends are the compressed ID,
// the signature it folds on the way is Signature of those bytes, and
// neither depends on where the caller's buffer ends (the 256-byte stack
// buffer spills through append) or on what the buffer already holds.
func FuzzCanonical(f *testing.F) {
	seeds := []string{
		"", " ", " ,;()\t\r\n", "abc", "  select 1  ", "((a))", "a,b", ";a",
		"a;", "a\x1fb", "a \x1f b", "\x1f", "caf\xc3\xa9 \xff\x80 x", "\x00 \x00",
		"SELECT d.name, SUM(f.amount) FROM fact f JOIN dim07 d ON f.k07 = d.key WHERE f.bucket = 0000042 GROUP BY d.name",
	}
	for _, n := range []int{255, 256, 257, 4096} {
		// n canonical bytes: no delimiters, then delimiters at the buffer
		// boundary, then a separator landing exactly on it.
		seeds = append(seeds, strings.Repeat("x", n), " "+strings.Repeat("y", n)+" ",
			strings.Repeat("z", n-2)+"  w", strings.Repeat("ab ", n/3)+strings.Repeat("c", n%3))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		want := builderCompressID(q)
		if got := CompressID(q); got != want {
			t.Fatalf("CompressID(%q) = %q, want %q", q, got, want)
		}
		var buf [256]byte
		id, sig := Canonical(buf[:0], q)
		if string(id) != want {
			t.Fatalf("Canonical(%q) appended %q, want %q", q, id, want)
		}
		if sig != Signature(want) {
			t.Fatalf("Canonical(%q) signature %#x, want Signature(%q) = %#x", q, sig, want, Signature(want))
		}
		if s := CanonicalString(id, q); s != want {
			t.Fatalf("CanonicalString = %q, want %q", s, want)
		}

		// A buffer with content, and no spare capacity at all: the result
		// is appended after it and trimmed relative to it.
		prefix := []byte("kept ")
		ext, sig2 := Canonical(prefix[:len(prefix):len(prefix)], q)
		if string(ext) != "kept "+want || sig2 != sig {
			t.Fatalf("Canonical(%q) onto a full prefix gave %q sig %#x, want %q sig %#x", q, ext, sig2, "kept "+want, sig)
		}
	})
}
