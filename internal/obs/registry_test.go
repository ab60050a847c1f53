package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRegistryRendersBothSurfaces(t *testing.T) {
	reg := NewRegistry()
	hits := reg.Counter(Desc{Name: "x_hits_total", Help: "Hits.", Stats: "hits"})
	inFlight := reg.Gauge(Desc{Name: "x_in_flight", Help: "In flight.", Stats: "in_flight"})
	reg.GaugeFunc(Desc{Name: "x_uptime_seconds", Help: "Uptime."}, func() float64 { return 1.5 })
	reg.Value("self", func() any { return "http://a:1" })
	reqs := reg.CounterVec(Desc{Name: "x_requests_total", Help: "Requests.", Stats: "*_requests"}, "endpoint", "coalesce", "spill")
	reg.CounterVec(Desc{Name: "x_wins_total", Help: "Wins.", Stats: "wins.*"}, "strategy")
	shard := reg.CounterVec(Desc{Name: "x_shard_total", Help: "Per shard.", Stats: "per_shard.*.forwarded"}, "shard")
	lat := reg.HistogramVec(Desc{Name: "x_latency_seconds", Help: "Latency.", Stats: "per_shard.*.latency"}, "shard")
	reg.Register(Runtime{})

	hits.Add(3)
	inFlight.Add(2)
	inFlight.Add(-1)
	reqs.With("spill").Inc()
	shard.With("http://w.0:80").Inc()
	lat.With("http://w.0:80").Observe(time.Millisecond)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	text := buf.String()
	if problems := LintPrometheus(text); len(problems) > 0 {
		t.Fatalf("lint:\n%s\n%s", strings.Join(problems, "\n"), text)
	}
	for _, want := range []string{
		"x_hits_total 3\n",
		"x_in_flight 1\n",
		"x_uptime_seconds 1.5\n",
		`x_requests_total{endpoint="coalesce"} 0` + "\n",
		`x_requests_total{endpoint="spill"} 1` + "\n",
		`x_shard_total{shard="http://w.0:80"} 1` + "\n",
		`x_latency_seconds_count{shard="http://w.0:80"} 1` + "\n",
		"# TYPE x_latency_seconds histogram\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// A labelled family with no children renders nothing on /metrics.
	if strings.Contains(text, "x_wins_total") {
		t.Errorf("empty family rendered:\n%s", text)
	}

	data, err := json.Marshal(reg.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["hits"] != 3.0 || doc["in_flight"] != 1.0 || doc["self"] != "http://a:1" {
		t.Errorf("scalars: %s", data)
	}
	if doc["coalesce_requests"] != 0.0 || doc["spill_requests"] != 1.0 {
		t.Errorf("flattened label keys: %s", data)
	}
	if _, ok := doc["x_uptime_seconds"]; ok {
		t.Errorf("/metrics-only family on /stats: %s", data)
	}
	if wins, ok := doc["wins"].(map[string]any); !ok || len(wins) != 0 {
		t.Errorf("empty labelled family should render {}: %s", data)
	}
	// Label values containing dots nest as one key.
	node, _ := doc["per_shard"].(map[string]any)["http://w.0:80"].(map[string]any)
	if node["forwarded"] != 1.0 {
		t.Errorf("per-shard object: %s", data)
	}
	if l, _ := node["latency"].(map[string]any); l["count"] != 1.0 {
		t.Errorf("histogram summary: %s", data)
	}

	paths := reg.CounterPaths()
	if got := strings.Join(paths[`x_requests_total{endpoint="spill"}`], "."); got != "spill_requests" {
		t.Errorf("counter path %q", got)
	}
	if _, ok := paths["x_in_flight"]; ok {
		t.Error("gauge listed among counter paths")
	}
}

func TestNilRegistryHandlesWork(t *testing.T) {
	var reg *Registry
	c := reg.Counter(Desc{Name: "c_total", Help: "c.", Stats: "c"})
	v := reg.GaugeVec(Desc{Name: "g", Help: "g.", Stats: "g.*"}, "peer")
	c.Inc()
	v.With("a").Set(4)
	if c.Load() != 1 || v.With("a").Load() != 4 || v.Len() != 1 {
		t.Fatalf("handles on a nil registry: counter %d, gauge %d", c.Load(), v.With("a").Load())
	}
}
