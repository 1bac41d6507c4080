package whatif

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// CellReport is one ghost configuration's live result.
type CellReport struct {
	// Policy is the cell's policy name.
	Policy string `json:"policy"`
	// Scale is the capacity multiple of the live cache this cell models.
	Scale float64 `json:"scale"`
	// ModeledBytes is the real-world capacity modeled (Scale × live
	// capacity); GhostBytes is the actual ghost capacity after the 1/R
	// sampling scale-down.
	ModeledBytes int64 `json:"modeled_bytes"`
	GhostBytes   int64 `json:"ghost_bytes"`
	// References is the number of sampled references this ghost replayed.
	References int64 `json:"references"`
	// CSR and HitRatio are the ghost's cumulative ratios — estimates of
	// what the live cache would report under this configuration.
	CSR      float64 `json:"csr"`
	HitRatio float64 `json:"hit_ratio"`
	// Theta is the ghost tuner's current threshold; only adaptive cells
	// carry one.
	Theta *float64 `json:"theta,omitempty"`
	// Stats exposes the ghost's full counter set.
	Stats core.Stats `json:"stats"`
}

// CurvePoint is one capacity step of a policy's miss-ratio curve.
type CurvePoint struct {
	Scale        float64 `json:"scale"`
	ModeledBytes int64   `json:"modeled_bytes"`
	CSR          float64 `json:"csr"`
	// MarginalCSRPerByte is the CSR gained per byte of capacity added
	// since the previous (smaller) point on the curve; zero on the first
	// point.
	MarginalCSRPerByte float64 `json:"marginal_csr_per_byte"`
}

// Curve is one policy's CSR-vs-capacity curve, points in ascending
// capacity order.
type Curve struct {
	Policy string       `json:"policy"`
	Points []CurvePoint `json:"points"`
}

// Advice is the advisor's verdict: the cheapest configuration whose
// estimated CSR beats the baseline cell (the scale-1 cell of the baseline
// policy, which models the live configuration) by at least Margin.
type Advice struct {
	BaselinePolicy string  `json:"baseline_policy"`
	BaselineCSR    float64 `json:"baseline_csr"`
	Margin         float64 `json:"margin"`
	// Recommendation is nil when no cell clears the bar — the live
	// configuration is already within Margin of the best ghost.
	Recommendation *CellReport `json:"recommendation,omitempty"`
	Reason         string      `json:"reason"`
}

// Report is the full matrix snapshot served by GET /v1/whatif.
type Report struct {
	SampleRate   int          `json:"sample_rate"`
	RefsSeen     int64        `json:"refs_seen"`
	RefsSampled  int64        `json:"refs_sampled"`
	RefsApplied  int64        `json:"refs_applied"`
	RefsShed     int64        `json:"refs_shed"`
	SampledRatio float64      `json:"sampled_ratio"`
	Cells        []CellReport `json:"cells"`
	Curves       []Curve      `json:"curves"`
	Advisor      Advice       `json:"advisor"`
}

// Report drains the pending queue (bounded by the FIFO depth) and builds
// the full matrix snapshot. margin ≤ 0 selects DefaultAdvisorMargin.
func (m *Matrix) Report(margin float64) Report {
	if margin <= 0 {
		margin = DefaultAdvisorMargin
	}
	m.Drain()

	rep := Report{SampleRate: m.cfg.SampleRate}
	rep.RefsSeen, rep.RefsSampled, rep.RefsShed = m.Counts()
	m.mu.Lock()
	cells := m.sortedCells()
	rep.Cells = make([]CellReport, 0, len(cells))
	for _, c := range cells {
		rep.Cells = append(rep.Cells, c.report())
	}
	m.mu.Unlock()

	rep.RefsApplied = rep.RefsSampled - rep.RefsShed
	if rep.RefsSeen > 0 {
		rep.SampledRatio = float64(rep.RefsSampled) / float64(rep.RefsSeen)
	}
	rep.Curves = curves(m.cfg.Policies, rep.Cells)
	rep.Advisor = advise(m.cfg.Baseline, margin, rep.Cells)
	return rep
}

// report snapshots one cell; callers hold m.mu.
func (c *cell) report() CellReport {
	st := c.cache.Stats()
	cr := CellReport{
		Policy:       c.policy.Name,
		Scale:        c.scale,
		ModeledBytes: c.modeled,
		GhostBytes:   c.ghost,
		References:   c.refs,
		CSR:          st.CostSavingsRatio(),
		HitRatio:     st.HitRatio(),
		Stats:        st,
	}
	if c.tuner != nil {
		th := c.tuner.Threshold()
		cr.Theta = &th
	}
	return cr
}

// curves groups the cell reports into per-policy CSR-vs-capacity curves
// (cells arrive sorted by policy order then ascending scale).
func curves(policies []Policy, cells []CellReport) []Curve {
	out := make([]Curve, 0, len(policies))
	for _, p := range policies {
		cv := Curve{Policy: p.Name}
		for _, c := range cells {
			if c.Policy != p.Name {
				continue
			}
			pt := CurvePoint{Scale: c.Scale, ModeledBytes: c.ModeledBytes, CSR: c.CSR}
			if n := len(cv.Points); n > 0 {
				prev := cv.Points[n-1]
				if db := pt.ModeledBytes - prev.ModeledBytes; db > 0 {
					pt.MarginalCSRPerByte = (pt.CSR - prev.CSR) / float64(db)
				}
			}
			cv.Points = append(cv.Points, pt)
		}
		out = append(out, cv)
	}
	return out
}

// advise picks the cheapest cell (by modeled capacity, then by CSR) whose
// CSR beats the baseline cell by at least margin.
func advise(baseline string, margin float64, cells []CellReport) Advice {
	adv := Advice{BaselinePolicy: baseline, Margin: margin}
	var base *CellReport
	for i := range cells {
		if cells[i].Policy == baseline && cells[i].Scale == 1 {
			base = &cells[i]
			break
		}
	}
	if base == nil {
		adv.Reason = "no scale-1 baseline cell in the matrix"
		return adv
	}
	adv.BaselineCSR = base.CSR
	if base.References == 0 {
		adv.Reason = "no sampled references yet"
		return adv
	}
	bar := base.CSR + margin
	for i := range cells {
		c := &cells[i]
		if c.CSR < bar {
			continue
		}
		if adv.Recommendation == nil ||
			c.ModeledBytes < adv.Recommendation.ModeledBytes ||
			(c.ModeledBytes == adv.Recommendation.ModeledBytes && c.CSR > adv.Recommendation.CSR) {
			rec := *c
			adv.Recommendation = &rec
		}
	}
	if adv.Recommendation == nil {
		adv.Reason = fmt.Sprintf("no configuration beats the current policy's estimated CSR %.4f by %.4f", base.CSR, margin)
		return adv
	}
	r := adv.Recommendation
	adv.Reason = fmt.Sprintf("%s at %s capacity (%d bytes) estimates CSR %.4f vs current %.4f (+%.4f)",
		r.Policy, formatScale(r.Scale), r.ModeledBytes, r.CSR, base.CSR, r.CSR-base.CSR)
	return adv
}

// WritePrometheusTo writes the watchman_whatif_* families in Prometheus
// text exposition format. Unlike Report it does not drain the queue: a
// scrape reads the ghosts as they are, at most one FIFO of lag behind the
// live stream.
func (m *Matrix) WritePrometheusTo(w io.Writer) {
	m.mu.Lock()
	cells := m.sortedCells()
	type row struct {
		capacity, policy string
		csr              float64
	}
	rows := make([]row, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, row{formatScale(c.scale), c.policy.Name, c.cache.Stats().CostSavingsRatio()})
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP watchman_whatif_csr Estimated cost-savings ratio of a counterfactual (capacity multiple, policy) ghost configuration.\n# TYPE watchman_whatif_csr gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "watchman_whatif_csr{capacity=%q,policy=%q} %g\n", r.capacity, r.policy, r.csr)
	}
	seen, sampled, _ := m.Counts()
	fmt.Fprintf(w, "# HELP watchman_whatif_refs_total Reference outcomes observed by the what-if matrix.\n# TYPE watchman_whatif_refs_total counter\nwatchman_whatif_refs_total %d\n", seen)
	ratio := 0.0
	if seen > 0 {
		ratio = float64(sampled) / float64(seen)
	}
	fmt.Fprintf(w, "# HELP watchman_whatif_sampled_ratio Fraction of observed references replayed into the ghost caches.\n# TYPE watchman_whatif_sampled_ratio gauge\nwatchman_whatif_sampled_ratio %g\n", ratio)
}
