package obs

import (
	"testing"
	"time"
)

// TestZeroAllocInstrumentation is the CI alloc gate for the tentpole
// contract: recording a latency sample and capturing a full trace —
// acquire, phase spans, race timeline, finish-to-ring — allocates
// nothing in steady state. The name matches the bench-smoke job's
// ZeroAlloc test filter, so a regression here fails CI under the race
// detector too.
func TestZeroAllocInstrumentation(t *testing.T) {
	var set Set
	tracer := NewTracer(32, 8, 0)

	// Warm the pool so steady state is measured, not first-touch.
	for i := 0; i < 4; i++ {
		tracer.Finish(tracer.Start(EndpointCoalesce, TraceID{}))
	}

	t.Run("HistogramObserve", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			set.ObserveRequest(EndpointCoalesce, 3*time.Millisecond)
			set.ObservePhase(EndpointCoalesce, PhaseRace, time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("histogram record allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("SpanCapture", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			tr := tracer.Start(EndpointCoalesce, TraceID{})
			tr.BeginPhase(PhaseDecode)
			set.ObservePhase(EndpointCoalesce, PhaseDecode, tr.EndPhase())
			tr.BeginPhase(PhaseCanon)
			set.ObservePhase(EndpointCoalesce, PhaseCanon, tr.EndPhase())
			tr.BeginPhase(PhaseRace)
			tr.AddMember("aggressive", 0, 100, MemberWon)
			tr.AddMember("conservative", 0, 900, MemberCutoff)
			tr.Winner = "aggressive"
			tr.DeadlineHit = true
			set.ObservePhase(EndpointCoalesce, PhaseRace, tr.EndPhase())
			tr.BeginPhase(PhaseEncode)
			set.ObservePhase(EndpointCoalesce, PhaseEncode, tr.EndPhase())
			set.ObserveRequest(EndpointCoalesce, time.Duration(tr.Since()))
			tracer.Finish(tr)
		})
		if allocs != 0 {
			t.Errorf("span capture allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("RegistryHandles", func(t *testing.T) {
		reg := NewRegistry()
		c := reg.Counter(Desc{Name: "c_total", Help: "c.", Stats: "c"})
		g := reg.Gauge(Desc{Name: "g", Help: "g.", Stats: "g"})
		wins := reg.CounterVec(Desc{Name: "w_total", Help: "w.", Stats: "w.*"}, "strategy")
		lat := reg.HistogramVec(Desc{Name: "l_seconds", Help: "l.", Stats: "l.*"}, "shard")
		wins.With("aggressive")
		lat.With("http://127.0.0.1:1")
		allocs := testing.AllocsPerRun(1000, func() {
			c.Inc()
			g.Add(1)
			g.Add(-1)
			wins.With("aggressive").Inc()
			lat.With("http://127.0.0.1:1").Observe(time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("registry hot path allocates %.1f/op, want 0", allocs)
		}
	})

	t.Run("TraceIDMint", func(t *testing.T) {
		allocs := testing.AllocsPerRun(1000, func() {
			_ = tracer.NewID()
		})
		if allocs != 0 {
			t.Errorf("NewID allocates %.1f/op, want 0", allocs)
		}
	})
}
