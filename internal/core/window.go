package core

// refWindow records the last K reference times of a retrieved set. It backs
// the paper's sliding-window estimate of the average reference rate (§2.1):
//
//	λᵢ = K / (t − t_K)
//
// where t is the current time and t_K the time of the K-th most recent
// reference. When fewer than K references have been observed, the maximal
// available number is used (§2.1, §2.2). Including the current time t ages
// sets that are no longer referenced without requiring explicit updates.
type refWindow struct {
	// times is a ring buffer of the most recent reference times; head is
	// the index of the most recent one.
	times []float64
	head  int
	// n is the number of valid times, at most len(times).
	n int
	// total counts every reference ever recorded, beyond the window.
	total int64
}

// newRefWindow creates a window holding up to k reference times; k must be
// at least 1.
func newRefWindow(k int) refWindow {
	if k < 1 {
		k = 1
	}
	return refWindow{times: make([]float64, k)}
}

// record appends a reference at time t. The ring indices wrap by
// comparison, not by %: len(times) is not a constant, so % would be an
// integer division on every hit.
func (w *refWindow) record(t float64) {
	if w.n == 0 {
		w.head = 0
	} else if w.head++; w.head == len(w.times) {
		w.head = 0
	}
	w.times[w.head] = t
	if w.n < len(w.times) {
		w.n++
	}
	w.total++
}

// count returns the number of reference times available, in [0, K].
func (w *refWindow) count() int { return w.n }

// totalRefs returns the lifetime reference count.
func (w *refWindow) totalRefs() int64 { return w.total }

// last returns the most recent reference time, or 0 when empty.
func (w *refWindow) last() float64 {
	if w.n == 0 {
		return 0
	}
	return w.times[w.head]
}

// kth returns the oldest reference time in the window (the t_K of the λ
// formula when the window is full, or t_k with k = count otherwise). It
// returns 0 when the window is empty.
func (w *refWindow) kth() float64 {
	if w.n == 0 {
		return 0
	}
	return w.times[w.oldest()]
}

// oldest returns the ring index of the oldest valid time; the window must
// not be empty.
func (w *refWindow) oldest() int {
	idx := w.head - (w.n - 1)
	if idx < 0 {
		idx += len(w.times)
	}
	return idx
}

// rateEpsilon bounds the λ denominator away from zero so that references
// arriving at identical timestamps yield a very large but finite rate.
const rateEpsilon = 1e-9

// rate returns the estimated average reference rate at time now, or 0 when
// no references have been recorded. The denominator is floored at minDt.
//
// The floor matters because λ = k/(t − t_k) diverges when a set is
// evaluated at the instant of its own (few) references: a set referenced
// once, right now, would look infinitely profitable and poison both sides
// of the LNC-A admission comparison. Flooring the elapsed time at the
// cache's observed mean inter-arrival gap gives such sets a high but sane
// initial rate — "about one reference per arrival" — that then ages
// normally. The paper's formula (3) leaves the t → t_K limit unspecified;
// the floor is this repository's deviation that resolves it.
func (w *refWindow) rate(now, minDt float64) float64 {
	return lambda(w.n, w.kth(), now, minDt)
}

// lambda is λ = n/(now − tK) from its inputs: n reference times, the
// oldest at tK, with the denominator floored at minDt and then at
// rateEpsilon. It is 0 when n is 0.
func lambda(n int, tK, now, minDt float64) float64 {
	if n == 0 {
		return 0
	}
	dt := now - tK
	if dt < minDt {
		dt = minDt
	}
	if dt < rateEpsilon {
		dt = rateEpsilon
	}
	return float64(n) / dt
}

// exportInto appends the window's valid reference times, oldest first,
// onto out and returns the extended slice.
func (w *refWindow) exportInto(out []float64) []float64 {
	if w.n == 0 {
		return out
	}
	idx := w.oldest()
	for i := 0; i < w.n; i++ {
		out = append(out, w.times[idx])
		if idx++; idx == len(w.times) {
			idx = 0
		}
	}
	return out
}

// clone returns a deep copy of the window.
func (w *refWindow) clone() refWindow {
	cp := *w
	cp.times = make([]float64, len(w.times))
	copy(cp.times, w.times)
	return cp
}
