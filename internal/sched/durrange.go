package sched

import "math"

// durRange keeps the minimum and maximum of a set of per-unit entries in a
// tournament tree: reading both costs O(1) and changing one entry
// O(log n), where a scan over the units costs O(n). A NaN entry is absent;
// its leaf holds (+Inf, −Inf), which never wins a comparison.
type durRange struct {
	size   int       // leaf count, a power of two
	lo, hi []float64 // node i's children are 2i and 2i+1; leaf j is size+j
}

// load replaces every entry with entry(j) for j < n, in O(n).
func (t *durRange) load(n int, entry func(j int) float64) {
	t.size = 1
	for t.size < n {
		t.size *= 2
	}
	if cap(t.lo) < 2*t.size {
		t.lo = make([]float64, 2*t.size)
		t.hi = make([]float64, 2*t.size)
	}
	t.lo, t.hi = t.lo[:2*t.size], t.hi[:2*t.size]
	for j := 0; j < t.size; j++ {
		v := math.NaN()
		if j < n {
			v = entry(j)
		}
		t.lo[t.size+j], t.hi[t.size+j] = rangeLeaf(v)
	}
	for i := t.size - 1; i >= 1; i-- {
		t.pull(i)
	}
}

// set replaces entry j with v (NaN removes it).
func (t *durRange) set(j int, v float64) {
	i := t.size + j
	t.lo[i], t.hi[i] = rangeLeaf(v)
	for i /= 2; i >= 1; i /= 2 {
		t.pull(i)
	}
}

// bounds returns the smallest and largest entry; lo > hi when there is none.
func (t *durRange) bounds() (lo, hi float64) { return t.lo[1], t.hi[1] }

func (t *durRange) pull(i int) {
	t.lo[i], t.hi[i] = t.lo[2*i], t.hi[2*i]
	if v := t.lo[2*i+1]; v < t.lo[i] {
		t.lo[i] = v
	}
	if v := t.hi[2*i+1]; v > t.hi[i] {
		t.hi[i] = v
	}
}

func rangeLeaf(v float64) (lo, hi float64) {
	if math.IsNaN(v) {
		return math.Inf(1), math.Inf(-1)
	}
	return v, v
}
