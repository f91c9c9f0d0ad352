package obs

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
)

// Registry holds named counters, gauges and fixed-bucket histograms. It is
// single-threaded like the rest of the simulation (callers outside the
// simulated world, e.g. tcpvia, guard it with their own locks). A nil
// *Registry ignores all updates, mirroring the nil-bus fast path.
type Registry struct {
	counters map[string]int64
	gauges   map[string]*gaugeVal
	hists    map[string]*Histogram
}

type gaugeVal struct {
	cur int64
	max int64
}

// Histogram counts observations into fixed upper-bound buckets (the last
// bucket is implicit +Inf). Bounds are set at creation and never change, so
// two runs bucket identically.
type Histogram struct {
	bounds []int64 // ascending upper bounds
	counts []int64 // len(bounds)+1; last is overflow
	sum    int64
	n      int64
	min    int64
	max    int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]int64{},
		gauges:   map[string]*gaugeVal{},
		hists:    map[string]*Histogram{},
	}
}

// Inc adds delta to the named counter.
func (g *Registry) Inc(name string, delta int64) {
	if g == nil {
		return
	}
	g.counters[name] += delta
}

// Counter returns the named counter's value (0 if absent).
func (g *Registry) Counter(name string) int64 {
	if g == nil {
		return 0
	}
	return g.counters[name]
}

// SetGauge records the named gauge's current value and tracks its maximum.
func (g *Registry) SetGauge(name string, v int64) {
	if g == nil {
		return
	}
	gv := g.gauges[name]
	if gv == nil {
		gv = &gaugeVal{}
		g.gauges[name] = gv
	}
	gv.cur = v
	if v > gv.max {
		gv.max = v
	}
}

// Hist returns the named histogram, creating it with the given bucket upper
// bounds on first use (later bounds arguments are ignored).
func (g *Registry) Hist(name string, bounds []int64) *Histogram {
	if g == nil {
		return nil
	}
	h := g.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		g.hists[name] = h
	}
	return h
}

// Observe adds one observation. Safe on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns a deterministic upper-bound estimate of the p-th
// percentile (0 < p <= 100): the upper bound of the bucket holding the
// ceil(n*p/100)-th observation, capped at the observed maximum (which makes
// the overflow bucket exact and keeps single-value histograms sensible).
// Integer arithmetic only, so every run reports identical percentiles.
// Returns 0 when empty or nil.
func (h *Histogram) Quantile(p int) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	target := (h.n*int64(p) + 99) / 100
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == len(h.bounds) || h.bounds[i] > h.max {
				return h.max
			}
			return h.bounds[i]
		}
	}
	return h.max
}

// WriteText renders the registry as a human-readable table, sorted by name.
func (g *Registry) WriteText(w io.Writer) {
	for _, k := range slices.Sorted(maps.Keys(g.counters)) {
		fmt.Fprintf(w, "counter %-28s %12d\n", k, g.counters[k])
	}
	for _, k := range slices.Sorted(maps.Keys(g.gauges)) {
		gv := g.gauges[k]
		fmt.Fprintf(w, "gauge   %-28s %12d (max %d)\n", k, gv.cur, gv.max)
	}
	for _, k := range slices.Sorted(maps.Keys(g.hists)) {
		h := g.hists[k]
		fmt.Fprintf(w, "hist    %-28s n=%d min=%d mean=%.1f max=%d p50=%d p90=%d p99=%d\n",
			k, h.n, h.min, h.Mean(), h.max, h.Quantile(50), h.Quantile(90), h.Quantile(99))
		for i, b := range h.bounds {
			if h.counts[i] > 0 {
				fmt.Fprintf(w, "        %-28s   <=%-12d %d\n", "", b, h.counts[i])
			}
		}
		if h.counts[len(h.bounds)] > 0 {
			fmt.Fprintf(w, "        %-28s   +Inf          %d\n", "", h.counts[len(h.bounds)])
		}
	}
}

// WriteCSV renders the registry as rows of kind,name,field,value.
func (g *Registry) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, "kind,name,field,value")
	for _, k := range slices.Sorted(maps.Keys(g.counters)) {
		fmt.Fprintf(w, "counter,%s,value,%d\n", k, g.counters[k])
	}
	for _, k := range slices.Sorted(maps.Keys(g.gauges)) {
		gv := g.gauges[k]
		fmt.Fprintf(w, "gauge,%s,cur,%d\n", k, gv.cur)
		fmt.Fprintf(w, "gauge,%s,max,%d\n", k, gv.max)
	}
	for _, k := range slices.Sorted(maps.Keys(g.hists)) {
		h := g.hists[k]
		fmt.Fprintf(w, "hist,%s,count,%d\n", k, h.n)
		fmt.Fprintf(w, "hist,%s,sum,%d\n", k, h.sum)
		fmt.Fprintf(w, "hist,%s,min,%d\n", k, h.min)
		fmt.Fprintf(w, "hist,%s,max,%d\n", k, h.max)
		fmt.Fprintf(w, "hist,%s,p50,%d\n", k, h.Quantile(50))
		fmt.Fprintf(w, "hist,%s,p90,%d\n", k, h.Quantile(90))
		fmt.Fprintf(w, "hist,%s,p99,%d\n", k, h.Quantile(99))
		for i, b := range h.bounds {
			fmt.Fprintf(w, "hist,%s,le_%d,%d\n", k, b, h.counts[i])
		}
		fmt.Fprintf(w, "hist,%s,le_inf,%d\n", k, h.counts[len(h.bounds)])
	}
}

// WriteJSON renders the registry as deterministic JSON (keys sorted; the
// encoding is hand-written so output bytes are a pure function of content).
func (g *Registry) WriteJSON(w io.Writer) {
	fmt.Fprint(w, "{\"counters\":{")
	for i, k := range slices.Sorted(maps.Keys(g.counters)) {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q:%d", k, g.counters[k])
	}
	fmt.Fprint(w, "},\"gauges\":{")
	for i, k := range slices.Sorted(maps.Keys(g.gauges)) {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		gv := g.gauges[k]
		fmt.Fprintf(w, "%q:{\"cur\":%d,\"max\":%d}", k, gv.cur, gv.max)
	}
	fmt.Fprint(w, "},\"histograms\":{")
	for i, k := range slices.Sorted(maps.Keys(g.hists)) {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		h := g.hists[k]
		fmt.Fprintf(w, "%q:{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"buckets\":[",
			k, h.n, h.sum, h.min, h.max, h.Quantile(50), h.Quantile(90), h.Quantile(99))
		for j, b := range h.bounds {
			if j > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "{\"le\":%d,\"n\":%d}", b, h.counts[j])
		}
		if len(h.bounds) > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "{\"le\":\"inf\",\"n\":%d}]}", h.counts[len(h.bounds)])
	}
	fmt.Fprintln(w, "}}")
}
