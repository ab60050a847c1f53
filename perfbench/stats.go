package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// timed is one latency sample and when, in its phase, it was due.
type timed struct {
	at  time.Duration
	lat float64
}

// latencyWindows is how many equal windows of a phase a latency
// percentile is taken over: the reported value is the median of the
// windows' values, so a stall of the shared machine during one window
// moves one value, not the result.
const latencyWindows = 3

// windowed returns the median over latencyWindows equal windows of span
// of the q-quantile of each window's samples.
func windowed(samples []timed, span time.Duration, q float64) float64 {
	per := make([][]float64, latencyWindows)
	for _, s := range samples {
		i := int(int64(s.at) * latencyWindows / int64(span))
		i = min(max(i, 0), latencyWindows-1)
		per[i] = append(per[i], s.lat)
	}
	var vals []float64
	for _, xs := range per {
		if len(xs) > 0 {
			vals = append(vals, quantile(xs, q))
		}
	}
	return quantile(vals, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// report is a run's result: the last line of standard output.
type report struct {
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// write prints the notes, then the result object as the last line.
func (r *report) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
