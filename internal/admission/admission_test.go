package admission

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// sampleFor builds a canonical sample from a raw query string.
func sampleFor(query string, size int64, cost, time float64) Sample {
	id := core.CompressID(query)
	return Sample{ID: id, Sig: core.Signature(id), Size: size, Cost: cost, Time: time}
}

// emit hands the tuner one reference outcome, as a live cache's event
// stream would. The feed is inline, so the outcome has reached every
// shadow (and closed the round, if it was the window's last) on return.
func emit(tu *Tuner, s Sample) {
	tu.Emit(core.Event{Kind: core.EventHit, ID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost,
		Relations: s.Relations})
}

func TestThresholdPublishLoad(t *testing.T) {
	th := NewThreshold(1)
	if got := th.Load(); got != 1 {
		t.Fatalf("initial threshold = %g, want 1", got)
	}
	th.Store(0.25)
	if got := th.Load(); got != 0.25 {
		t.Fatalf("threshold after Store = %g, want 0.25", got)
	}
}

func TestStaticAdmitterIsLNCA(t *testing.T) {
	a := NewStaticAdmitter(1)
	if !a.Admit(core.AdmissionDecision{Profit: 2, Bar: 1}) {
		t.Error("profit 2 > bar 1 must admit at θ=1")
	}
	if a.Admit(core.AdmissionDecision{Profit: 1, Bar: 1}) {
		t.Error("profit == bar must reject at θ=1 (strict inequality, as LNC-A)")
	}
	conservative := NewStaticAdmitter(4)
	if conservative.Admit(core.AdmissionDecision{Profit: 2, Bar: 1}) {
		t.Error("profit 2 ≤ 4·1 must reject at θ=4")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Error("zero capacity must error")
	}
	if _, err := New(Config{Capacity: 1 << 20, Grid: []float64{0.5, 2}}); err == nil {
		t.Error("grid without θ=1 must error")
	}
	if _, err := New(Config{Capacity: 1 << 20, Grid: []float64{1, -2}}); err == nil {
		t.Error("negative grid candidate must error")
	}
	if _, err := New(Config{Capacity: 1 << 20, Grid: []float64{1, math.Inf(1)}}); err == nil {
		t.Error("infinite grid candidate must error")
	}
	tu, err := New(Config{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := tu.Threshold(); got != 1 {
		t.Fatalf("initial threshold = %g, want the static LNC-A setting 1", got)
	}
	if got := len(tu.Grid()); got != len(DefaultGrid()) {
		t.Fatalf("default grid has %d candidates, want %d", got, len(DefaultGrid()))
	}
}

// TestShadowMatchesBruteForce pins the core property of the evaluator: a
// candidate's persistent shadow cache, fed outcome by outcome across
// rounds, reports exactly the statistics of a brute-force replay of every
// outcome through one static-θ cache.
func TestShadowMatchesBruteForce(t *testing.T) {
	const window = 64
	grid := []float64{0.25, 1, 4}
	tu, err := New(Config{Capacity: 8192, K: 2, Window: window, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}

	// A small mixed workload: a cyclic hot set plus unique cold queries.
	var fed []Sample
	now := 0.0
	for i := 0; i < 4*window; i++ {
		now += 1
		var s Sample
		if i%3 == 0 {
			s = sampleFor(fmt.Sprintf("cold scan %d", i), 3000, 900, now)
		} else {
			s = sampleFor(fmt.Sprintf("hot query %d", i%7), 500, 250, now)
		}
		fed = append(fed, s)
		emit(tu, s)
	}
	rounds := tu.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("completed %d rounds, want 4", len(rounds))
	}

	for i, theta := range grid {
		shadow, err := core.New(core.Config{
			Capacity: 8192,
			K:        2,
			Policy:   core.LNCRA,
			Admitter: NewStaticAdmitter(theta),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range fed {
			shadow.ReferenceCanonical(core.Request{
				QueryID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost,
			}, s.Sig)
		}
		want := shadow.Stats().CostSavingsRatio()
		got := rounds[0].Scores[i].TotalCSR
		if got != want {
			t.Errorf("θ=%g: shadow cumulative CSR %.9f, brute-force replay %.9f", theta, got, want)
		}
	}
}

// bimodalTrace builds the convergence workload: a small hot working set
// that fits in cache, interleaved with unique large one-shot scans whose
// high execution cost makes their e-profit beat the hot sets' profits —
// so the static θ=1 rule admits them and thrashes the hot set, while a
// conservative θ keeps them out.
func bimodalTrace(n int) []Sample {
	samples := make([]Sample, 0, n)
	now := 0.0
	scan := 0
	for i := 0; i < n; i++ {
		now += 1
		if i%2 == 1 {
			scan++
			samples = append(samples, sampleFor(fmt.Sprintf("scan %d", scan), 5000, 25000, now))
		} else {
			samples = append(samples, sampleFor(fmt.Sprintf("hot %d", i/2%8), 1000, 1000, now))
		}
	}
	return samples
}

// replayStatic replays samples through one cache with a fixed θ.
func replayStatic(t *testing.T, samples []Sample, theta float64) core.Stats {
	t.Helper()
	c, err := core.New(core.Config{
		Capacity: 10000,
		K:        4,
		Policy:   core.LNCRA,
		Admitter: NewStaticAdmitter(theta),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		c.ReferenceCanonical(core.Request{QueryID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost}, s.Sig)
	}
	return c.Stats()
}

// TestTunerConvergesOnBimodalWorkload drives the tuner over the bimodal
// workload and requires it to move the threshold conservative of the
// static setting, with the adaptively gated cache earning at least the
// static cache's cost savings.
func TestTunerConvergesOnBimodalWorkload(t *testing.T) {
	const window = 256
	samples := bimodalTrace(16 * window)

	tu, err := New(Config{Capacity: 10000, K: 4, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.New(core.Config{
		Capacity: 10000,
		K:        4,
		Policy:   core.LNCRA,
		Admitter: tu.Admitter(),
		Sink:     tu,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		live.ReferenceCanonical(core.Request{QueryID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost}, s.Sig)
	}

	if got := tu.Threshold(); got <= 1 {
		t.Errorf("tuner converged to θ=%g, want a conservative setting > 1 on the thrashing workload", got)
	}
	adaptive := live.Stats().CostSavingsRatio()
	static := replayStatic(t, samples, 1).CostSavingsRatio()
	if adaptive < static {
		t.Errorf("adaptive CSR %.4f < static LNC-A CSR %.4f", adaptive, static)
	}
	if rounds := tu.Rounds(); len(rounds) == 0 || rounds[0].Seq != int64(len(rounds)) {
		t.Errorf("round history malformed: %d rounds, newest seq %d", len(rounds), rounds[0].Seq)
	}
}

// TestNewRejectsTinyWindow pins that a window below the scoring minimum is
// a construction error, not a silent no-op tuner.
func TestNewRejectsTinyWindow(t *testing.T) {
	if _, err := New(Config{Capacity: 1 << 20, Window: 8}); err == nil {
		t.Error("window 8 (< 16) must error")
	}
}

// TestShadowsHonorInvalidation checks that coherence events reach the
// shadow caches: after invalidating a relation, the shadows cannot keep
// scoring hits on its sets.
func TestShadowsHonorInvalidation(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, K: 2, Window: 16, Grid: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	ref := func(times int, start float64) Round {
		for i := 0; i < times; i++ {
			s := sampleFor("select * from r", 100, 50, start+float64(i))
			s.Relations = []string{"r"}
			emit(tu, s)
		}
		return tu.Rounds()[0]
	}
	if round := ref(16, 1); round.Scores[0].CSR == 0 {
		t.Fatal("repeated references must score shadow hits before invalidation")
	}
	tu.Invalidate("r")
	// After the invalidation the set must be re-fetched once (a miss) in
	// the shadow before hitting again: strictly fewer window hits than a
	// shadow that ignored the coherence event (which would hit all 16).
	if round := ref(16, 100); round.Scores[0].CSR >= 1 {
		t.Errorf("post-invalidation window CSR = %g, want < 1 (first reference must miss)", round.Scores[0].CSR)
	}
}

// TestRecordReportsBacklogPastWindow pins the round cadence: recording the
// Window-th outcome of each window closes a round of exactly Window samples
// inline, so no backlog builds up past a window, and the first outcome
// after a round cannot close another.
func TestRecordReportsBacklogPastWindow(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		emit(tu, sampleFor(fmt.Sprintf("q%d", i), 100, 10, float64(i+1)))
		if got, want := len(tu.Rounds()), (i+1)/16; got != want {
			t.Fatalf("after %d outcomes: %d rounds, want %d", i+1, got, want)
		}
	}
	for i, r := range tu.Rounds() {
		if r.Samples != 16 {
			t.Errorf("round %d scored %d samples, want the window size 16", i+1, r.Samples)
		}
	}
	if _, ok := tu.TuneOnce(); ok {
		t.Error("TuneOnce scored the empty window left by the last round")
	}
	emit(tu, sampleFor("fresh", 100, 10, 49))
	if got := len(tu.Rounds()); got != 3 {
		t.Errorf("first outcome after a round left %d rounds, want 3", got)
	}
}

// TestProfileRingOverflow pins the bounded open window: it never holds more
// than Window samples, it keeps the outcomes after the last round in
// stream order for TuneOnce and ExportState, a window below the minimum
// stays open, and the round that fills it empties it.
func TestProfileRingOverflow(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		emit(tu, sampleFor(fmt.Sprintf("q%d", i), 100, 10, float64(i+1)))
		if n := len(tu.ExportState().Samples); n >= 16 {
			t.Fatalf("after %d outcomes the window holds %d samples, want fewer than 16", i+1, n)
		}
	}
	open := tu.ExportState().Samples
	if len(open) != 8 {
		t.Fatalf("window holds %d samples, want the 8 after the last round", len(open))
	}
	for i, s := range open {
		if want := float64(33 + i); s.Time != want {
			t.Errorf("sample %d has time %g, want %g (stream order)", i, s.Time, want)
		}
	}
	if _, ok := tu.TuneOnce(); ok {
		t.Error("TuneOnce scored the 8-sample window below the minimum")
	}
	if n := len(tu.ExportState().Samples); n != 8 {
		t.Errorf("an unscored TuneOnce left %d samples in the window, want 8", n)
	}
	for i := 40; i < 48; i++ {
		emit(tu, sampleFor(fmt.Sprintf("q%d", i), 100, 10, float64(i+1)))
	}
	if n := len(tu.ExportState().Samples); n != 0 {
		t.Errorf("the round that filled the window left %d samples, want 0", n)
	}
}

// TestTuneOnceSkipsTinyWindows ensures a near-empty window cannot publish
// a parameter from noise.
func TestTuneOnceSkipsTinyWindows(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < minRoundSamples-1; i++ {
		emit(tu, sampleFor(fmt.Sprintf("q%d", i), 100, 10, float64(i+1)))
	}
	if _, ok := tu.TuneOnce(); ok {
		t.Error("TuneOnce scored a window below minRoundSamples")
	}
}

// TestArmScores pins the /v1/admission arms surface: one entry per grid
// candidate in grid order, unseeded before any round, and carrying each
// shadow's cumulative replay standing afterwards.
func TestArmScores(t *testing.T) {
	grid := []float64{0.25, 1, 4}
	tu, err := New(Config{Capacity: 8192, K: 2, Window: 16, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	arms := tu.ArmScores()
	if len(arms) != len(grid) {
		t.Fatalf("arms = %d, want %d", len(arms), len(grid))
	}
	for i, a := range arms {
		if a.Theta != grid[i] {
			t.Errorf("arm %d θ=%g, want grid order %g", i, a.Theta, grid[i])
		}
		if a.Seeded || a.References != 0 {
			t.Errorf("arm θ=%g scored before any round: %+v", a.Theta, a)
		}
	}

	for i := 0; i < 16; i++ {
		emit(tu, sampleFor(fmt.Sprintf("q%d", i%5), 500, 250, float64(i+1)))
	}
	for _, a := range tu.ArmScores() {
		if !a.Seeded || a.References != 16 {
			t.Errorf("arm θ=%g after one round: %+v, want seeded with 16 references", a.Theta, a)
		}
	}
}
