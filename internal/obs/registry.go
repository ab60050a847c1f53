package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a server's metric declarations and renders both of its
// counter surfaces from them: Prometheus text on GET /metrics and the
// JSON document on GET /stats. Each metric is declared once — name, HELP
// text, type and /stats key path — and the declaration hands back the
// atomic handle the hot path updates, so a metric cannot appear on one
// surface and not the other, and the text format is written in exactly
// one place (passing LintPrometheus by construction).
//
// Declarations on a nil *Registry return working handles that are simply
// not rendered, so components built outside a server (tests, standalone
// session stores) need no registry.
type Registry struct {
	mu   sync.Mutex
	fams []Family
}

// Family is one registered unit of rendering. The declaration helpers
// below cover counters, gauges, value functions and labelled families;
// composite families (the latency Set, the runtime gauges) implement it
// directly.
type Family interface {
	// WritePrometheus writes the family's HELP/TYPE header and samples,
	// or nothing when it has no series.
	WritePrometheus(w io.Writer)
	// WriteStats adds the family's values to the /stats document.
	WriteStats(doc map[string]any)
}

// Desc declares a metric. Name is the Prometheus family name (empty for a
// /stats-only value); Stats is the dotted /stats key path (empty for a
// /metrics-only family). In a labelled family, a "*" inside a path
// segment stands for the label value: "*_requests" flattens each value
// into its own key, "per_shard.*.forwarded" nests an object per value.
type Desc struct {
	Name, Help, Stats string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a family; rendering follows registration order.
func (r *Registry) Register(f Family) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
}

func (r *Registry) families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Family(nil), r.fams...)
}

// WritePrometheus renders every family as Prometheus text (the body of
// GET /metrics).
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.families() {
		f.WritePrometheus(w)
	}
}

// Stats renders every family into one /stats document.
func (r *Registry) Stats() map[string]any {
	doc := map[string]any{}
	for _, f := range r.families() {
		f.WriteStats(doc)
	}
	return doc
}

// CounterPaths maps every counter series rendered on both surfaces — as
// written on /metrics, name{label="value"} — to its /stats key path, so
// tests can check the two surfaces agree.
func (r *Registry) CounterPaths() map[string][]string {
	out := map[string][]string{}
	for _, f := range r.families() {
		if c, ok := f.(interface{ counterPaths(map[string][]string) }); ok {
			c.counterPaths(out)
		}
	}
	return out
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; Add is one atomic add.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Inc()        { c.v.Add(1) }
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that rises and falls. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Add(n int64) { g.v.Add(n) }
func (g *Gauge) Set(n int64) { g.v.Store(n) }
func (g *Gauge) Load() int64 { return g.v.Load() }

// Counter declares a counter.
func (r *Registry) Counter(d Desc) *Counter {
	c := &Counter{}
	r.CounterFunc(d, func() float64 { return float64(c.Load()) })
	return c
}

// Gauge declares a gauge.
func (r *Registry) Gauge(d Desc) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(d, func() float64 { return float64(g.Load()) })
	return g
}

// CounterFunc declares a counter whose value is read from f at render
// time (for counts another component already keeps).
func (r *Registry) CounterFunc(d Desc, f func() float64) {
	r.Register(&family{Desc: d, typ: "counter", each: func(yield func(string, any)) { yield("", f()) }})
}

// GaugeFunc declares a gauge whose value is read from f at render time.
func (r *Registry) GaugeFunc(d Desc, f func() float64) {
	r.Register(&family{Desc: d, typ: "gauge", each: func(yield func(string, any)) { yield("", f()) }})
}

// Value declares a /stats-only entry of any JSON-encodable value (node
// lists, names, configuration echoes) read from f at render time.
func (r *Registry) Value(statsKey string, f func() any) {
	r.Register(&family{Desc: Desc{Stats: statsKey}, each: func(yield func(string, any)) { yield("", f()) }})
}

// CounterVec declares a counter family partitioned by one label. values
// are created up front (rendered even at zero); others are created on
// first use.
func (r *Registry) CounterVec(d Desc, label string, values ...string) *Vec[Counter] {
	v := newVec[Counter](values)
	r.Register(&family{Desc: d, typ: "counter", label: label, each: func(yield func(string, any)) {
		v.Each(func(val string, c *Counter) { yield(val, float64(c.Load())) })
	}})
	return v
}

// GaugeVec declares a gauge family partitioned by one label.
func (r *Registry) GaugeVec(d Desc, label string, values ...string) *Vec[Gauge] {
	v := newVec[Gauge](values)
	r.Register(&family{Desc: d, typ: "gauge", label: label, each: func(yield func(string, any)) {
		v.Each(func(val string, g *Gauge) { yield(val, float64(g.Load())) })
	}})
	return v
}

// GaugeFuncVec declares a gauge family over a fixed label set whose
// values are read from f at render time.
func (r *Registry) GaugeFuncVec(d Desc, label string, values []string, f func(value string) float64) {
	r.Register(&family{Desc: d, typ: "gauge", label: label, each: func(yield func(string, any)) {
		for _, val := range values {
			yield(val, f(val))
		}
	}})
}

// HistogramVec declares a latency histogram family partitioned by one
// label; /stats carries each child's quantile summary.
func (r *Registry) HistogramVec(d Desc, label string) *Vec[Histogram] {
	v := newVec[Histogram](nil)
	r.Register(&family{Desc: d, typ: "histogram", label: label, each: func(yield func(string, any)) {
		v.Each(func(val string, h *Histogram) { yield(val, h) })
	}})
	return v
}

// Vec is the child set of a labelled family. With is lock-free once a
// label value exists: children live in an immutable map replaced
// copy-on-write, so the hot path for a known value is one atomic load
// and a map read; only the first use of a new value takes the lock.
type Vec[T any] struct {
	m  atomic.Pointer[map[string]*T]
	mu sync.Mutex
}

func newVec[T any](values []string) *Vec[T] {
	v := &Vec[T]{}
	m := make(map[string]*T, len(values))
	for _, val := range values {
		m[val] = new(T)
	}
	v.m.Store(&m)
	return v
}

// With returns the child for a label value, creating it on first use.
func (v *Vec[T]) With(value string) *T {
	if c, ok := (*v.m.Load())[value]; ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.m.Load()
	if c, ok := old[value]; ok {
		return c
	}
	next := make(map[string]*T, len(old)+1)
	for k, c := range old {
		next[k] = c
	}
	c := new(T)
	next[value] = c
	v.m.Store(&next)
	return c
}

// Each calls f for every child in label-value order.
func (v *Vec[T]) Each(f func(value string, child *T)) {
	m := *v.m.Load()
	values := make([]string, 0, len(m))
	for val := range m {
		values = append(values, val)
	}
	sort.Strings(values)
	for _, val := range values {
		f(val, m[val])
	}
}

// Len reports the number of children.
func (v *Vec[T]) Len() int { return len(*v.m.Load()) }

// family is one declared metric. each yields its series as (label
// value, current value) pairs; a value is a float64, a *Histogram, or —
// in a /stats-only family — any JSON value.
type family struct {
	Desc
	typ   string // counter, gauge or histogram; empty for /stats-only
	label string // empty for a single unlabelled series
	each  func(yield func(value string, v any))
}

// labels renders a series' label set ("" when unlabelled).
func (f *family) labels(val string) string {
	if f.label == "" {
		return ""
	}
	return f.label + "=" + strconv.Quote(val)
}

func (f *family) WritePrometheus(w io.Writer) {
	if f.Name == "" {
		return
	}
	headed := false
	f.each(func(val string, v any) {
		if !headed {
			writeHeader(w, f.Name, f.Help, f.typ)
			headed = true
		}
		if h, ok := v.(*Histogram); ok {
			h.WritePrometheus(w, f.Name, f.labels(val))
			return
		}
		writeSample(w, f.Name, f.labels(val), v.(float64))
	})
}

// WriteStats writes one key per series. A labelled family with no series
// yet still writes the object its "*" segment would populate, so the key
// is present (as {}) before the first label value appears.
func (f *family) WriteStats(doc map[string]any) {
	if f.Stats == "" {
		return
	}
	empty := true
	f.each(func(val string, v any) {
		empty = false
		if h, ok := v.(*Histogram); ok {
			v = h.Summary()
		}
		setPath(doc, f.Stats, val, v)
	})
	if prefix, _, ok := strings.Cut(f.Stats, ".*"); ok && empty {
		setPath(doc, prefix, "", map[string]any{})
	}
}

func (f *family) counterPaths(out map[string][]string) {
	if f.typ != "counter" || f.Name == "" || f.Stats == "" {
		return
	}
	f.each(func(val string, _ any) {
		series := f.Name
		if l := f.labels(val); l != "" {
			series += "{" + l + "}"
		}
		out[series] = statsPath(f.Stats, val)
	})
}

// statsPath splits a dotted key path into segments, substituting label
// for "*" in each. Segments are split before substitution, so label
// values may contain dots (node URLs).
func statsPath(path, label string) []string {
	segs := strings.Split(path, ".")
	for i, seg := range segs {
		segs[i] = strings.ReplaceAll(seg, "*", label)
	}
	return segs
}

// setPath stores v at the dotted path (see statsPath), creating
// intermediate objects. An object already at the final key is kept: an
// empty family's {} never clobbers keys another family wrote there.
func setPath(doc map[string]any, path, label string, v any) {
	segs := statsPath(path, label)
	for _, seg := range segs[:len(segs)-1] {
		next, ok := doc[seg].(map[string]any)
		if !ok {
			next = map[string]any{}
			doc[seg] = next
		}
		doc = next
	}
	last := segs[len(segs)-1]
	if _, isObject := doc[last].(map[string]any); !isObject {
		doc[last] = v
	}
}

// writeHeader writes a family's HELP/TYPE pair: the one place outside the
// histogram renderer that emits Prometheus comment lines.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSample writes one sample line. Values render without exponent or
// trailing zeros, so integral counts read as integers.
func writeSample(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		name += "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s %s\n", name, strconv.FormatFloat(v, 'f', -1, 64))
}
