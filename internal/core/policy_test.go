package core

import (
	"strings"
	"testing"
)

// mkEntry builds a resident entry with the given reference times.
func mkEntry(id string, size int64, cost float64, k int, refs ...float64) *Entry {
	e := &Entry{ID: id, Sig: Signature(id), Size: size, Cost: cost}
	e.window = newRefWindow(k)
	for _, r := range refs {
		e.window.record(r)
	}
	return e
}

func TestPolicyKindString(t *testing.T) {
	cases := map[PolicyKind]string{
		LRU: "LRU", LRUK: "LRU-K", LFU: "LFU", LCS: "LCS",
		LNCR: "LNC-R", LNCRA: "LNC-RA", PolicyKind(99): "PolicyKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]PolicyKind{
		"lru": LRU, "LRU": LRU,
		"lru-k": LRUK, "lruk": LRUK,
		"lfu": LFU, "lcs": LCS,
		"lnc-r": LNCR, "lncr": LNCR,
		"lnc-ra": LNCRA, "LNC-RA": LNCRA,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("unknown"); err == nil {
		t.Error("unknown policy must error")
	}
	// Every kind's display name, lowercased, parses back to the kind.
	for _, k := range []PolicyKind{LRU, LRUK, LFU, LCS, LNCR, LNCRA} {
		if got, err := ParsePolicy(strings.ToLower(k.String())); err != nil || got != k {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", strings.ToLower(k.String()), got, err, k)
		}
	}
}

func TestPolicyKindFlags(t *testing.T) {
	if !LNCRA.HasAdmission() {
		t.Error("LNC-RA must run admission")
	}
	for _, p := range []PolicyKind{LRU, LRUK, LFU, LCS, LNCR} {
		if p.HasAdmission() {
			t.Errorf("%s must not run admission", p)
		}
	}
	for _, p := range []PolicyKind{LRUK, LNCR, LNCRA} {
		if !p.RetainsRefInfo() {
			t.Errorf("%s must retain reference info", p)
		}
	}
	for _, p := range []PolicyKind{LRU, LFU, LCS} {
		if p.RetainsRefInfo() {
			t.Errorf("%s must not retain reference info", p)
		}
	}
}

func TestRankLRU(t *testing.T) {
	r := ranker{policy: LRU}
	old := mkEntry("old", 1, 1, 1, 10)
	recent := mkEntry("recent", 1, 1, 1, 50)
	to, ko := r.rank(old, 100)
	tr, kr := r.rank(recent, 100)
	if to != tr {
		t.Fatal("LRU uses a single tier")
	}
	if ko >= kr {
		t.Fatal("older last reference must rank lower (evicted first)")
	}
}

func TestRankLRUK(t *testing.T) {
	r := ranker{policy: LRUK}
	partial := mkEntry("partial", 1, 1, 3, 90) // 1 of 3 references
	full := mkEntry("full", 1, 1, 3, 10, 20, 30)
	tp, _ := r.rank(partial, 100)
	tf, kf := r.rank(full, 100)
	if tp >= tf {
		t.Fatal("incomplete windows must be evicted before complete ones")
	}
	if kf != 10 {
		t.Fatalf("full-window key = %g, want K-th most recent reference 10", kf)
	}
}

func TestRankLFU(t *testing.T) {
	r := ranker{policy: LFU}
	rare := mkEntry("rare", 1, 1, 2, 1)
	frequent := mkEntry("freq", 1, 1, 2, 1, 2)
	frequent.window.record(3) // 3 lifetime references
	_, kr := r.rank(rare, 10)
	_, kf := r.rank(frequent, 10)
	if kr >= kf {
		t.Fatal("less frequently used must rank lower")
	}
}

func TestRankLCS(t *testing.T) {
	r := ranker{policy: LCS}
	small := mkEntry("small", 10, 1, 1, 1)
	big := mkEntry("big", 1000, 1, 1, 1)
	_, ks := r.rank(small, 10)
	_, kb := r.rank(big, 10)
	if kb >= ks {
		t.Fatal("largest set must rank lowest (evicted first)")
	}
}

func TestRankLNCProfitOrder(t *testing.T) {
	r := ranker{policy: LNCR}
	// Same reference history; profit differs through cost/size.
	cheapBig := mkEntry("cheapBig", 1000, 10, 4, 10, 20)
	dearSmall := mkEntry("dearSmall", 10, 1000, 4, 10, 20)
	tc, kc := r.rank(cheapBig, 100)
	td, kd := r.rank(dearSmall, 100)
	if tc != td {
		t.Fatal("equal reference counts must share a tier")
	}
	if kc >= kd {
		t.Fatal("low-profit set must rank lower")
	}
}

func TestRankLNCStrictTiers(t *testing.T) {
	strict := ranker{policy: LNCRA, strictTiers: true}
	relaxed := ranker{policy: LNCRA}
	oneRef := mkEntry("one", 10, 1e6, 4, 90) // huge profit, one reference
	fourRef := mkEntry("four", 10, 1, 4, 10, 20, 30, 40)

	t1, _ := strict.rank(oneRef, 100)
	t4, _ := strict.rank(fourRef, 100)
	if t1 >= t4 {
		t.Fatal("strict tiers: fewer references must be evicted first regardless of profit")
	}

	r1, k1 := relaxed.rank(oneRef, 100)
	r4, k4 := relaxed.rank(fourRef, 100)
	if r1 != r4 {
		t.Fatal("relaxed ranking must use a single tier")
	}
	if k1 <= k4 {
		t.Fatal("relaxed ranking must order by profit")
	}
}

func TestRankLNCAgingChangesOrder(t *testing.T) {
	r := ranker{policy: LNCR}
	// Two sets with equal cost/size: the one referenced more recently (and
	// more densely) must outrank the stale one, and the gap must narrow as
	// time passes (aging).
	stale := mkEntry("stale", 10, 100, 2, 1, 2)
	fresh := mkEntry("fresh", 10, 100, 2, 90, 95)
	_, ks := r.rank(stale, 100)
	_, kf := r.rank(fresh, 100)
	if ks >= kf {
		t.Fatal("stale set must rank below fresh set")
	}
	_, ksLater := r.rank(stale, 10000)
	_, kfLater := r.rank(fresh, 10000)
	if ratioNow, ratioLater := kf/ks, kfLater/ksLater; ratioLater >= ratioNow {
		t.Fatalf("aging must narrow the profit gap: %g -> %g", ratioNow, ratioLater)
	}
}

func TestProfitFormula(t *testing.T) {
	e := mkEntry("e", 50, 1000, 2, 10, 20)
	// profit = λ·c/s with λ = 2/(100−10).
	want := (2.0 / 90) * 1000 / 50
	if got := e.Profit(100); got != want {
		t.Fatalf("Profit = %g, want %g", got, want)
	}
	if got := e.EProfit(); got != 20 {
		t.Fatalf("EProfit = %g, want 20", got)
	}
}

func TestProfitZeroSize(t *testing.T) {
	e := mkEntry("z", 0, 100, 1, 1)
	if e.Profit(10) != 0 || e.EProfit() != 0 {
		t.Fatal("zero-size entries must have zero profit, not NaN/Inf")
	}
}

func TestProfitAggregates(t *testing.T) {
	a := mkEntry("a", 100, 500, 2, 10, 20)
	b := mkEntry("b", 300, 900, 2, 30, 40)
	now := 100.0
	wantNum := a.Rate(now)*a.Cost + b.Rate(now)*b.Cost
	if got, want := profitOf([]*Entry{a, b}, now), wantNum/400; got != want {
		t.Fatalf("profitOf = %g, want %g", got, want)
	}
	if got, want := eprofitOf([]*Entry{a, b}), (500.0+900)/400; got != want {
		t.Fatalf("eprofitOf = %g, want %g", got, want)
	}
	if profitOf(nil, now) != 0 || eprofitOf(nil) != 0 {
		t.Fatal("empty candidate lists must have zero profit")
	}
}
