package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/workload"
)

func TestStreamDeterministicPerSeed(t *testing.T) {
	profiles, err := workload.MineProfiles([]string{"mas", "yelp", "imdb"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := generate(profiles, readMix, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(profiles, readMix, 7, 500)
	c, _ := generate(profiles, readMix, 8, 500)
	if workload.Fingerprint(a) != workload.Fingerprint(b) {
		t.Fatal("same seed produced different streams")
	}
	if workload.Fingerprint(a) == workload.Fingerprint(c) {
		t.Fatal("different seeds produced the same stream")
	}
	for _, r := range a {
		if r.Op == workload.OpLogAppend {
			t.Fatalf("read stream carries a log append: %+v", r)
		}
		if r.Op == workload.OpTranslate && len(r.Translate.Queries) != 1 {
			t.Fatalf("translate with %d queries, want 1", len(r.Translate.Queries))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of no samples is not NaN")
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	start := time.Unix(100, 0)
	due := dueTime(start, 30, 10) // request 30 at 10/s is due 3s in
	if want := start.Add(3 * time.Second); !due.Equal(want) {
		t.Fatalf("due %v, want %v", due, want)
	}
	// Sent 40ms late, answered 5ms after sending: the user waited 45ms.
	lat, late := openLoopTiming(due, due.Add(40*time.Millisecond), due.Add(45*time.Millisecond))
	if lat != 45*time.Millisecond || late != 40*time.Millisecond {
		t.Fatalf("latency %v lateness %v, want 45ms and 40ms", lat, late)
	}
	// A send before its due time is never negative lateness.
	if _, late := openLoopTiming(due, due.Add(-time.Millisecond), due.Add(time.Millisecond)); late != 0 {
		t.Fatalf("early send lateness %v, want 0", late)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children are merged: [10,50] covers 40.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent is clipped: [90,100] covers 10.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is covered by its parent only.
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	called := false
	tr.do("x", 0, 0, func() { called = true })
	if !called {
		t.Fatal("nil tracer skipped the call")
	}
	live := newTracer()
	id := live.start("parent", 0, 7)
	live.do("child", id, 7, func() {})
	live.end(id)
	spans := live.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].ReqID != 7 {
		t.Fatalf("unexpected spans %+v", spans)
	}
}

func tileOrFatal(t *testing.T, k int, seed uint64) *datasets.Dataset {
	t.Helper()
	ds, err := tile(datasets.MAS(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTiledGoldParsesAndResolves(t *testing.T) {
	ds := tileOrFatal(t, 3, 1)
	sch := ds.DB.Schema()
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		if err := q.Resolve(nil); err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		for _, rel := range q.Relations() {
			if _, ok := sch.Relation(rel); !ok {
				t.Fatalf("%s: relation %q not in the tiled schema", task.ID, rel)
			}
		}
		if _, err := ds.DB.Execute(sqlparse.MustParse(task.Gold)); err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
	}
}

func TestTiledVerticesGrowLinearly(t *testing.T) {
	vertices := func(k int) int {
		entries, err := gold(tileOrFatal(t, k, 1))
		if err != nil {
			t.Fatal(err)
		}
		g, err := qfg.Build(entries, fragment.NoConstOp)
		if err != nil {
			t.Fatal(err)
		}
		return g.Vertices()
	}
	v1 := vertices(1)
	for _, k := range []int{2, 5} {
		if v := vertices(k); v < k*v1*9/10 || v > k*v1*11/10 {
			t.Fatalf("V(%d) = %d, want about %d·V(1) = %d", k, v, k, k*v1)
		}
	}
}

func TestTilerDeterministicPerSeed(t *testing.T) {
	digest := func(ds *datasets.Dataset) string {
		var b strings.Builder
		for _, r := range ds.DB.Schema().Relations() {
			b.WriteString(r + ";")
			for _, row := range ds.DB.Table(r).Rows() {
				for _, v := range row {
					b.WriteString(v.String() + ",")
				}
			}
		}
		for _, task := range ds.Tasks {
			b.WriteString(task.Gold + ";")
			for _, kw := range task.Keywords {
				b.WriteString(kw.Text + ",")
			}
		}
		return b.String()
	}
	a, b, c := digest(tileOrFatal(t, 3, 9)), digest(tileOrFatal(t, 3, 9)), digest(tileOrFatal(t, 3, 10))
	if a != b {
		t.Fatal("same seed produced different tenants")
	}
	if a == c {
		t.Fatal("different seeds produced the same tenant")
	}
}

func TestTiledCopiesHaveDistinctText(t *testing.T) {
	ds := tileOrFatal(t, 4, 1)
	tokens := map[string]bool{}
	for _, r := range ds.DB.Schema().Relations() {
		tokens[r[strings.LastIndexByte(r, '_')+1:]] = true
	}
	if len(tokens) != 4 {
		t.Fatalf("%d copy tokens in relation names, want 4", len(tokens))
	}
	seen := map[string]string{}
	for _, r := range ds.DB.Schema().Relations() {
		tok := r[strings.LastIndexByte(r, '_')+1:]
		for _, row := range ds.DB.Table(r).Rows() {
			for _, v := range row {
				if v.IsNum {
					continue
				}
				if !strings.HasSuffix(v.S, " "+tok) {
					t.Fatalf("%s value %q lacks its copy token %q", r, v.S, tok)
				}
				if other, ok := seen[v.S]; ok && other != tok {
					t.Fatalf("value %q appears in copies %s and %s", v.S, other, tok)
				}
				seen[v.S] = tok
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json in step with what
// the program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := strings.Join(names(spec.EndToEnd), ","), strings.Join(sorted(endToEndMetrics), ","); got != want {
		t.Errorf("end_to_end metrics %s, program prints %s", got, want)
	}
	if got, want := strings.Join(names(spec.PerLayer), ","), strings.Join(sorted(perLayerMetrics), ","); got != want {
		t.Errorf("per_layer metrics %s, program prints %s", got, want)
	}
	why := map[string]string{}
	for _, w := range spec.Workloads {
		why[w.Name] = w.Why
	}
	for _, c := range []struct{ workload, mentions string }{
		{"serve-read", "3000 req/s"},
		{"serve-read", "4096 appends"},
		{"scale-append", "k=64"},
		{"scale-append", "fsync every append"},
	} {
		if !strings.Contains(why[c.workload], c.mentions) {
			t.Errorf("BENCHMARK.json why of %s does not state %q", c.workload, c.mentions)
		}
	}
	if len(spec.Workloads) != 2 || why["serve-read"] == "" || why["scale-append"] == "" {
		t.Errorf("BENCHMARK.json workloads %+v, program runs serve-read and scale-append", spec.Workloads)
	}
	if serveReadRate != 3000 || probeWrites != 4096 || tileFactor != 64 {
		t.Error("workload constants changed: update BENCHMARK.json's rationale and this test")
	}
}

// TestServeReadEndToEnd runs the smallest workload once untraced and once
// traced, in a temporary directory, and checks the result line.
func TestServeReadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, trace := range []string{"0", "1"} {
		var out strings.Builder
		code := run([]string{"--workload", "serve-read", "--seed", "3", "--seconds", "0.4", "--trace", trace}, &out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not a result: %v", trace, err)
		}
		want := endToEndMetrics
		if trace == "1" {
			want = perLayerMetrics
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: unexpected result %+v", trace, res)
		}
	}
}
