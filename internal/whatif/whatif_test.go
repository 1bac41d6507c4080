package whatif

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func baseConfig() core.Config {
	return core.Config{Capacity: 4096, K: 2, Policy: core.LNCRA}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Base: baseConfig(), SampleRate: -1},
		{Base: core.Config{Capacity: core.Unlimited, K: 2, Policy: core.LNCRA}},
		{Base: baseConfig(), Scales: []float64{0}},
		{Base: baseConfig(), Baseline: "fifo"},
		// 0.25 × 4096 / 8192 rounds to zero ghost bytes.
		{Base: baseConfig(), SampleRate: 8192},
	}
	for i, cfg := range bad {
		if m, err := New(cfg); err == nil {
			m.Close()
			t.Errorf("case %d: New(%+v) must error", i, cfg)
		}
	}
}

func refEvent(kind core.EventKind, id string, size int64, cost float64, relations ...string) core.Event {
	return core.Event{Kind: kind, ID: id, Size: size, Cost: cost, Relations: relations}
}

// TestMatrixEndToEnd drives a rate-1 matrix through the event vocabulary
// and checks the report: cell grid shape, reference accounting, curves
// and advisor annotation.
func TestMatrixEndToEnd(t *testing.T) {
	lru := Policy{Name: "lru", Kind: core.LRU}
	lnc := Policy{Name: "lnc-ra", Kind: core.LNCRA}
	m, err := New(Config{
		Base:       baseConfig(),
		SampleRate: 1,
		Scales:     []float64{0.5, 1},
		Policies:   []Policy{lru, lnc},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for i := 0; i < 8; i++ {
		m.Emit(refEvent(core.EventMissAdmitted, fmt.Sprintf("q%d", i), 256, 10, "lineitem"))
	}
	m.Emit(refEvent(core.EventHit, "q0", 256, 10, "lineitem"))
	// Admission bookkeeping for a derived hit must not count as a
	// reference; evictions are ignored outright.
	ev := refEvent(core.EventMissAdmitted, "derived", 256, 10)
	ev.Derived = true
	m.Emit(ev)
	m.Emit(refEvent(core.EventEvict, "q1", 256, 10))
	// Size-0 outcomes carry nothing to cache.
	m.Emit(refEvent(core.EventExternalMiss, "zero", 0, 5))

	rep := m.Report(0)
	if rep.SampleRate != 1 || rep.SampledRatio != 0.9 {
		t.Errorf("sample accounting: rate %d ratio %v (want 1, 0.9)", rep.SampleRate, rep.SampledRatio)
	}
	if rep.RefsSeen != 10 || rep.RefsSampled != 9 || rep.RefsApplied != 9 || rep.RefsShed != 0 {
		t.Errorf("refs seen/sampled/applied/shed = %d/%d/%d/%d, want 10/9/9/0",
			rep.RefsSeen, rep.RefsSampled, rep.RefsApplied, rep.RefsShed)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.References != 9 {
			t.Errorf("cell %s/%vx replayed %d refs, want 9", c.Policy, c.Scale, c.References)
		}
		if c.Scale == 1 && c.ModeledBytes != 4096 {
			t.Errorf("cell %s/1x models %d bytes, want 4096", c.Policy, c.ModeledBytes)
		}
		if c.Theta != nil {
			t.Errorf("non-adaptive cell %s/%vx has θ", c.Policy, c.Scale)
		}
	}
	// Cells sorted by policy-set order then ascending scale.
	wantOrder := [][2]any{{"lru", 0.5}, {"lru", 1.0}, {"lnc-ra", 0.5}, {"lnc-ra", 1.0}}
	for i, w := range wantOrder {
		if rep.Cells[i].Policy != w[0] || rep.Cells[i].Scale != w[1] {
			t.Errorf("cell %d = %s/%vx, want %v/%vx", i, rep.Cells[i].Policy, rep.Cells[i].Scale, w[0], w[1])
		}
	}
	if len(rep.Curves) != 2 || len(rep.Curves[0].Points) != 2 {
		t.Fatalf("curves = %+v, want 2 curves × 2 points", rep.Curves)
	}
	// Baseline defaults to the policy matching Base.Policy (lnc-ra).
	if rep.Advisor.BaselinePolicy != "lnc-ra" || rep.Advisor.Margin != DefaultAdvisorMargin {
		t.Errorf("advisor = %+v, want lnc-ra baseline at default margin", rep.Advisor)
	}

	// Coherence: invalidating the only referenced relation empties the
	// ghosts.
	m.Invalidate("lineitem")
	m.Drain()
	rep = m.Report(0)
	for _, c := range rep.Cells {
		if c.Stats.Invalidations == 0 {
			t.Errorf("cell %s/%vx saw no invalidations", c.Policy, c.Scale)
		}
	}
}

// TestRestoreWarmsGhosts checks an EventRestore seeds ghost residency: a
// later hit on the restored ID is a ghost hit without a prior ghost miss.
func TestRestoreWarmsGhosts(t *testing.T) {
	m, err := New(Config{
		Base:       baseConfig(),
		SampleRate: 1,
		Scales:     []float64{1},
		Policies:   []Policy{{Name: "lru", Kind: core.LRU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	m.Emit(refEvent(core.EventRestore, "warm", 128, 7))
	m.Emit(refEvent(core.EventHit, "warm", 128, 7))
	rep := m.Report(0)
	c := rep.Cells[0]
	if c.Stats.Hits != 1 || c.Stats.References != 1 {
		t.Errorf("restored set: ghost stats %+v, want 1 hit / 1 reference", c.Stats)
	}
}

func TestAdaptiveCellCarriesTheta(t *testing.T) {
	m, err := New(Config{
		Base:       baseConfig(),
		SampleRate: 1,
		Scales:     []float64{1},
		Policies:   []Policy{{Name: "lnc-ra-adaptive", Kind: core.LNCRA, Adaptive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Emit(refEvent(core.EventMissAdmitted, "q", 64, 3))
	rep := m.Report(0)
	if rep.Cells[0].Theta == nil {
		t.Fatal("adaptive cell must report θ")
	}
}

func TestCloseIsIdempotentAndSheds(t *testing.T) {
	m, err := New(Config{Base: baseConfig(), SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
	m.Drain() // must not hang after close
	m.Emit(refEvent(core.EventHit, "late", 64, 3))
	rep := m.Report(0)
	if rep.RefsSeen != 1 || rep.RefsShed != 1 {
		t.Errorf("post-close emit: seen %d shed %d, want 1/1", rep.RefsSeen, rep.RefsShed)
	}
}

func TestAdvise(t *testing.T) {
	cells := []CellReport{
		{Policy: "lnc-ra", Scale: 0.5, ModeledBytes: 2048, References: 10, CSR: 0.30},
		{Policy: "lnc-ra", Scale: 1, ModeledBytes: 4096, References: 10, CSR: 0.40},
		{Policy: "lnc-ra", Scale: 2, ModeledBytes: 8192, References: 10, CSR: 0.55},
		{Policy: "lru", Scale: 1, ModeledBytes: 4096, References: 10, CSR: 0.52},
		{Policy: "lru", Scale: 2, ModeledBytes: 8192, References: 10, CSR: 0.53},
	}
	adv := advise("lnc-ra", 0.01, cells)
	if adv.BaselineCSR != 0.40 {
		t.Fatalf("baseline CSR %v, want 0.40", adv.BaselineCSR)
	}
	// Both lru/1x (0.52) and the 2x cells clear the bar; the cheapest
	// modeled capacity must win.
	if adv.Recommendation == nil || adv.Recommendation.Policy != "lru" || adv.Recommendation.Scale != 1 {
		t.Fatalf("recommendation = %+v, want lru/1x", adv.Recommendation)
	}
	if !strings.Contains(adv.Reason, "lru") {
		t.Errorf("reason %q does not name the recommendation", adv.Reason)
	}

	// Raise the margin past every alternative: no recommendation.
	adv = advise("lnc-ra", 0.5, cells)
	if adv.Recommendation != nil {
		t.Errorf("with margin 0.5 recommendation must be nil, got %+v", adv.Recommendation)
	}

	adv = advise("lnc-ra", 0.01, nil)
	if adv.Recommendation != nil || adv.Reason == "" {
		t.Error("empty matrix must explain itself")
	}

	zero := []CellReport{{Policy: "lnc-ra", Scale: 1, ModeledBytes: 4096}}
	adv = advise("lnc-ra", 0.01, zero)
	if adv.Recommendation != nil || !strings.Contains(adv.Reason, "no sampled references") {
		t.Errorf("zero-traffic advice = %+v", adv)
	}
}

func TestWritePrometheus(t *testing.T) {
	m, err := New(Config{
		Base:       baseConfig(),
		SampleRate: 1,
		Scales:     []float64{0.25, 1},
		Policies:   []Policy{{Name: "lru", Kind: core.LRU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Emit(refEvent(core.EventMissAdmitted, "q", 64, 3))
	m.Drain()

	var sb strings.Builder
	m.WritePrometheusTo(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE watchman_whatif_csr gauge",
		`watchman_whatif_csr{capacity="0.25x",policy="lru"}`,
		`watchman_whatif_csr{capacity="1x",policy="lru"}`,
		"# TYPE watchman_whatif_refs_total counter",
		"watchman_whatif_refs_total 1",
		"# TYPE watchman_whatif_sampled_ratio gauge",
		"watchman_whatif_sampled_ratio 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
