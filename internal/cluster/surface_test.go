package cluster_test

// Surface tests: a fixed request script is driven through a single node,
// a cluster worker and the router. The golden test compares each scrape's
// metric surface — sorted HELP/TYPE lines and series names with labels,
// values stripped — plus the sorted set of /stats JSON key paths against
// testdata/surface.golden, so a renamed series, a changed HELP text or a
// moved /stats key fails here before it reaches a dashboard. The
// agreement test checks that, once traffic stops, every counter reads the
// same value on /metrics and /stats.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"regcoal/internal/cluster"
	"regcoal/internal/obs"
	"regcoal/internal/service"
	"regcoal/internal/session"
)

const surfaceGolden = "testdata/surface.golden"

// driveSurfaceScript sends the fixed script to base: misses and hits on
// every solve endpoint, a deadline-cut race, a bad request, both batch
// shapes, and one delta session's create, delta and close.
func driveSurfaceScript(t *testing.T, base string) {
	t.Helper()
	insts := quickInstances(t)
	for _, inst := range insts[:3] {
		body := requestBody(t, inst.File)
		post(t, base+"/v1/coalesce", body)
		post(t, base+"/v1/coalesce", body)
	}
	post(t, base+"/v1/allocate", requestBody(t, insts[0].File))
	post(t, base+"/v1/spill", requestBody(t, insts[0].File))
	post(t, base+"/v1/coalesce", denseRaceBody(t, 1))
	post(t, base+"/v1/coalesce", []byte(`{"nope":1}`))

	items := []service.Request{{Graph: specFromFileT(insts[0].File)}, {Graph: specFromFileT(insts[1].File)}}
	breq, _ := json.Marshal(&service.BatchSolveRequest{Kind: "coalesce", Items: items})
	post(t, base+"/v1/batch", breq)
	legacy, _ := json.Marshal(&service.Request{Batch: items})
	post(t, base+"/v1/coalesce", legacy)

	spec := &service.GraphSpec{Vertices: 6, K: 3, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
		Moves: []service.Move{{X: 0, Y: 5, Weight: 7}}}
	cbody, _ := json.Marshal(service.DeltaRequest{Op: "create", Graph: spec})
	status, _, resp := post(t, base+"/v1/coalesce/delta", cbody)
	if status != http.StatusOK {
		t.Fatalf("session create: status %d: %s", status, resp)
	}
	var created service.DeltaResponse
	if err := json.Unmarshal(resp, &created); err != nil {
		t.Fatal(err)
	}
	v := int64(0)
	dbody, _ := json.Marshal(service.DeltaRequest{SessionID: created.SessionID, BaseHash: created.BaseHash,
		Version: &v, Deltas: []session.Delta{{Op: session.OpAddVertex}}})
	if status, _, resp := post(t, base+"/v1/coalesce/delta", dbody); status != http.StatusOK {
		t.Fatalf("session delta: status %d: %s", status, resp)
	}
	xbody, _ := json.Marshal(service.DeltaRequest{Op: "close", SessionID: created.SessionID, BaseHash: created.BaseHash})
	if status, _, resp := post(t, base+"/v1/coalesce/delta", xbody); status != http.StatusOK {
		t.Fatalf("session close: status %d: %s", status, resp)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(data)
}

// normalizeLabelValue maps label values that vary between runs — node
// URLs with random ports, the strategy that happened to win a race — to
// placeholders.
func normalizeLabelValue(name, value string) string {
	switch {
	case strings.HasPrefix(value, "http://"):
		return "<node>"
	case name == "strategy":
		return "<strategy>"
	}
	return value
}

// metricShape reduces a /metrics payload to its sorted, de-duplicated
// HELP/TYPE lines and series names with normalized labels.
func metricShape(payload string) []string {
	set := map[string]bool{}
	for _, line := range strings.Split(payload, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			set[line] = true
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, labels, ok := strings.Cut(series, "{")
		if ok {
			pairs := strings.Split(strings.TrimSuffix(labels, "}"), ",")
			for i, p := range pairs {
				k, v, _ := strings.Cut(p, "=")
				pairs[i] = k + `="` + normalizeLabelValue(k, strings.Trim(v, `"`)) + `"`
			}
			series = name + "{" + strings.Join(pairs, ",") + "}"
		}
		set[series] = true
	}
	return sortedSet(set)
}

// statsShape reduces a /stats body to its sorted set of JSON key paths.
func statsShape(t *testing.T, body string) []string {
	t.Helper()
	var root map[string]any
	if err := json.Unmarshal([]byte(body), &root); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	set := map[string]bool{}
	var walk func(prefix, parent string, m map[string]any)
	walk = func(prefix, parent string, m map[string]any) {
		for k, v := range m {
			switch {
			case strings.HasPrefix(k, "http://"):
				k = "<node>"
			case parent == "strategy_wins":
				k = "<strategy>"
			}
			path := prefix + k
			set[path] = true
			if child, ok := v.(map[string]any); ok {
				walk(path+".", k, child)
			}
		}
	}
	walk("", "", root)
	return sortedSet(set)
}

func sortedSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// surfaceShapes drives the script through each surface and returns the
// rendered golden text.
func surfaceShapes(t *testing.T) string {
	t.Helper()
	_, single := startSingle(t, service.Config{})
	c := startCluster(t, 2, cluster.InProcessOptions{})

	surfaces := []struct{ name, drive, scrape string }{
		{"service", single.URL, single.URL},
		{"worker", c.Workers[0].URL, c.Workers[0].URL},
		{"router", c.RouterURL, c.RouterURL},
	}
	var b strings.Builder
	for _, s := range surfaces {
		driveSurfaceScript(t, s.drive)
		payload := getBody(t, s.scrape+"/metrics")
		if problems := obs.LintPrometheus(payload); len(problems) > 0 {
			t.Errorf("%s /metrics fails lint:\n  %s", s.name, strings.Join(problems, "\n  "))
		}
		b.WriteString("== " + s.name + " /metrics\n")
		for _, line := range metricShape(payload) {
			b.WriteString(line + "\n")
		}
		b.WriteString("== " + s.name + " /stats\n")
		for _, line := range statsShape(t, getBody(t, s.scrape+"/stats")) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

func TestMetricsSurfaceGolden(t *testing.T) {
	got := surfaceShapes(t)
	data, err := os.ReadFile(filepath.FromSlash(surfaceGolden))
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	if got == want {
		return
	}
	gotSet, wantSet := map[string]bool{}, map[string]bool{}
	section := ""
	for _, l := range strings.Split(got, "\n") {
		if strings.HasPrefix(l, "== ") {
			section = l
		}
		gotSet[section+" | "+l] = true
	}
	section = ""
	for _, l := range strings.Split(want, "\n") {
		if strings.HasPrefix(l, "== ") {
			section = l
		}
		wantSet[section+" | "+l] = true
	}
	for _, l := range sortedSet(wantSet) {
		if !gotSet[l] {
			t.Errorf("missing: %s", l)
		}
	}
	for _, l := range sortedSet(gotSet) {
		if !wantSet[l] {
			t.Errorf("unexpected: %s", l)
		}
	}
}

// TestMetricsStatsCountersAgree: in one quiescent snapshot, every counter
// declared on both surfaces reads the same value on /metrics and /stats.
func TestMetricsStatsCountersAgree(t *testing.T) {
	single, singleTS := startSingle(t, service.Config{})
	c := startCluster(t, 2, cluster.InProcessOptions{})
	surfaces := []struct {
		name, url string
		reg       *obs.Registry
	}{
		{"service", singleTS.URL, single.Registry()},
		{"worker", c.Workers[0].URL, c.Workers[0].Service.Registry()},
		{"router", c.RouterURL, c.Router.Registry()},
	}
	for _, s := range surfaces {
		driveSurfaceScript(t, s.url)
		metrics := map[string]float64{}
		for _, line := range strings.Split(getBody(t, s.url+"/metrics"), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("%s: bad sample %q", s.name, line)
			}
			metrics[line[:i]] = v
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(getBody(t, s.url+"/stats")), &doc); err != nil {
			t.Fatal(err)
		}
		paths := s.reg.CounterPaths()
		if len(paths) == 0 {
			t.Fatalf("%s: no counters declared", s.name)
		}
		nonzero := 0
		for series, path := range paths {
			want, ok := metrics[series]
			if !ok {
				t.Errorf("%s: counter %s not on /metrics", s.name, series)
				continue
			}
			var node any = doc
			for _, seg := range path {
				obj, _ := node.(map[string]any)
				node = obj[seg]
			}
			got, ok := node.(float64)
			if !ok {
				t.Errorf("%s: counter %s: /stats %s is %v, want a number", s.name, series, strings.Join(path, "."), node)
				continue
			}
			if got != want {
				t.Errorf("%s: counter %s reads %v on /metrics but %v on /stats %s", s.name, series, want, got, strings.Join(path, "."))
			}
			if want != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Errorf("%s: every counter reads zero after the script", s.name)
		}
	}
}
