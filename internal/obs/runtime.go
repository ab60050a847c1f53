package obs

import (
	"io"
	"runtime"
)

// Runtime is the Go runtime family — goroutine count, GC totals, heap
// occupancy — rendered on /metrics only. It calls runtime.ReadMemStats
// once per scrape (a brief stop-the-world), so it runs only when
// rendered, never on the request path.
type Runtime struct{}

func (Runtime) WritePrometheus(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for _, m := range []struct {
		name, help, typ string
		v               float64
	}{
		{"regcoal_goroutines", "Current goroutine count.", "gauge", float64(runtime.NumGoroutine())},
		{"regcoal_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge", float64(ms.HeapAlloc)},
		{"regcoal_heap_objects", "Number of allocated heap objects.", "gauge", float64(ms.HeapObjects)},
		{"regcoal_next_gc_bytes", "Heap size target of the next GC cycle.", "gauge", float64(ms.NextGC)},
		{"regcoal_gc_runs_total", "Completed GC cycles.", "counter", float64(ms.NumGC)},
		{"regcoal_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter", float64(ms.PauseTotalNs) / 1e9},
		{"regcoal_alloc_bytes_total", "Cumulative bytes allocated.", "counter", float64(ms.TotalAlloc)},
	} {
		writeHeader(w, m.name, m.help, m.typ)
		writeSample(w, m.name, "", m.v)
	}
}

func (Runtime) WriteStats(map[string]any) {}
