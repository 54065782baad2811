package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/pkg/api"
)

// buildGraph trains a QFG from a dataset's full gold-SQL log.
func buildGraph(t testing.TB, ds *datasets.Dataset) *qfg.Graph {
	t.Helper()
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, task := range ds.Tasks {
		q, err := sqlparse.Parse(task.Gold)
		if err != nil {
			t.Fatalf("%s: %v", task.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	graph, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		t.Fatal(err)
	}
	return graph
}

// buildSystem assembles a Templar instance over a benchmark dataset with
// the QFG trained from the full gold-SQL log.
func buildSystem(t testing.TB, ds *datasets.Dataset, opts keyword.Options) *templar.System {
	t.Helper()
	return templar.New(ds.DB, embedding.New(), buildGraph(t, ds), templar.Options{Keyword: opts, LogJoin: true})
}

// buildLiveSystem is buildSystem over a live (appendable) log.
func buildLiveSystem(t testing.TB, ds *datasets.Dataset, opts keyword.Options) *templar.System {
	t.Helper()
	live := qfg.NewLive(buildGraph(t, ds))
	return templar.NewLive(ds.DB, embedding.New(), live, templar.Options{Keyword: opts, LogJoin: true})
}

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	ds := datasets.MAS()
	srv := NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postJSON posts a body and decodes the response into out, returning the
// status code.
func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("status %d: undecodable body %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Dataset != "MAS" || h.Relations == 0 || h.Workers != 4 {
		t.Fatalf("unexpected health %+v", h)
	}
}

func TestMapKeywordsHandler(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/map-keywords"

	var resp api.MapKeywordsResponse
	status := postJSON(t, url, V1MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"},
		Top:           3,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(resp.Configurations) == 0 || len(resp.Configurations) > 3 {
		t.Fatalf("got %d configurations, want 1..3", len(resp.Configurations))
	}
	top := resp.Configurations[0]
	if len(top.Mappings) != 2 || top.Score <= 0 {
		t.Fatalf("malformed top configuration %+v", top)
	}

	// The structured form must be equivalent to the spec form.
	var structured api.MapKeywordsResponse
	status = postJSON(t, url, V1MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Keywords: []api.Keyword{
			{Text: "papers", Context: "select"},
			{Text: "Databases", Context: "where"},
		}},
		Top: 3,
	}, &structured)
	if status != http.StatusOK {
		t.Fatalf("structured status = %d", status)
	}
	if !reflect.DeepEqual(resp, structured) {
		t.Fatal("spec and structured keyword forms disagree")
	}
}

func TestMapKeywordsErrors(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/map-keywords"

	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty", V1MapKeywordsRequest{}, http.StatusBadRequest},
		{"both forms", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Spec:     "papers:select",
			Keywords: []api.Keyword{{Text: "papers", Context: "select"}},
		}}, http.StatusBadRequest},
		{"bad context", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Keywords: []api.Keyword{{Text: "papers", Context: "sideways"}},
		}}, http.StatusBadRequest},
		{"unmappable keyword", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{
			Keywords: []api.Keyword{{Text: "zzzqqqxxyy", Context: "where"}},
		}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var er V1Error
		if status := postJSON(t, url, tc.body, &er); status != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, status, tc.want)
		} else if er.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestInferJoinsHandler(t *testing.T) {
	ts := newTestServer(t)
	url := ts.URL + "/v1/infer-joins"

	var resp api.InferJoinsResponse
	if status := postJSON(t, url, V1InferJoinsRequest{Relations: []string{"publication", "domain"}, TopK: 3}, &resp); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(resp.Paths) == 0 {
		t.Fatal("no paths")
	}
	if p := resp.Paths[0]; len(p.Relations) < 2 || len(p.Edges) == 0 || p.Goodness <= 0 {
		t.Fatalf("malformed path %+v", p)
	}

	// Self-join bag: duplicated relation must fork an instance.
	var fork api.InferJoinsResponse
	if status := postJSON(t, url, V1InferJoinsRequest{Relations: []string{"author", "author", "publication"}}, &fork); status != http.StatusOK {
		t.Fatalf("self-join status = %d", status)
	}
	found := false
	for _, rel := range fork.Paths[0].Relations {
		if rel == "author#2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("self-join fork missing from %v", fork.Paths[0].Relations)
	}

	var er V1Error
	if status := postJSON(t, url, V1InferJoinsRequest{Relations: []string{"nonesuch"}}, &er); status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown relation status = %d", status)
	}
	if status := postJSON(t, url, V1InferJoinsRequest{}, &er); status != http.StatusBadRequest {
		t.Fatalf("empty bag status = %d", status)
	}
}

func TestTranslateHandler(t *testing.T) {
	ts := newTestServer(t)

	var resp V1TranslateResponse
	status := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "oops"}, // malformed: per-query error, not batch failure
		{Spec: "authors:select;Data Mining:where"},
	}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for _, i := range []int{0, 2} {
		r := resp.Results[i]
		if r.Error != "" || r.SQL == "" || r.Config == nil || r.Path == nil {
			t.Fatalf("result %d malformed: %+v", i, r)
		}
	}
	if resp.Results[1].Error == "" || resp.Results[1].SQL != "" {
		t.Fatalf("result 1 should carry only an error: %+v", resp.Results[1])
	}

	var er V1Error
	if status := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{}, &er); status != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", status)
	}
}

// TestConcurrentClients hammers one shared system from many goroutines
// across all three endpoints (run under -race to exercise the mapper cache,
// the cloned join graphs and the worker pool) and requires every client to
// observe the same answers.
func TestConcurrentClients(t *testing.T) {
	ts := newTestServer(t)

	var wantMap api.MapKeywordsResponse
	if s := postJSON(t, ts.URL+"/v1/map-keywords", V1MapKeywordsRequest{
		KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"}, Top: 1,
	}, &wantMap); s != http.StatusOK {
		t.Fatalf("warmup map status = %d", s)
	}
	var wantTr V1TranslateResponse
	if s := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "authors:select;Data Mining:where"},
	}}, &wantTr); s != http.StatusOK {
		t.Fatalf("warmup translate status = %d", s)
	}

	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (c + r) % 3 {
				case 0:
					var got api.MapKeywordsResponse
					if s := postJSON(t, ts.URL+"/v1/map-keywords", V1MapKeywordsRequest{
						KeywordsInput: api.KeywordsInput{Spec: "papers:select;Databases:where"}, Top: 1,
					}, &got); s != http.StatusOK {
						t.Errorf("client %d: map status %d", c, s)
						return
					} else if !reflect.DeepEqual(got, wantMap) {
						t.Errorf("client %d: map answer diverged", c)
						return
					}
				case 1:
					var got api.InferJoinsResponse
					if s := postJSON(t, ts.URL+"/v1/infer-joins", V1InferJoinsRequest{
						Relations: []string{"author", "author", "publication"},
					}, &got); s != http.StatusOK {
						t.Errorf("client %d: joins status %d", c, s)
						return
					}
				default:
					var got V1TranslateResponse
					if s := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
						{Spec: "papers:select;Databases:where"},
						{Spec: "authors:select;Data Mining:where"},
					}}, &got); s != http.StatusOK {
						t.Errorf("client %d: translate status %d", c, s)
						return
					} else if !reflect.DeepEqual(got, wantTr) {
						t.Errorf("client %d: translate answer diverged", c)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestLogAppendHandler exercises the live-log path: appends through
// /v1/log must republish the snapshot (visible in /healthz) while a frozen
// system rejects appends with 409.
func TestLogAppendHandler(t *testing.T) {
	ds := datasets.MAS()
	srv := NewServer(buildLiveSystem(t, ds, keyword.Options{}), ds.Name, 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var before api.HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&before); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !before.LiveLog || before.LogQueries == 0 {
		t.Fatalf("live health = %+v", before)
	}

	var ar api.LogAppendResponse
	status := postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT p.title FROM publication p WHERE p.citation_num > 50", Count: 3},
		{SQL: "SELECT a.name FROM author a"},
	}}, &ar)
	if status != http.StatusOK {
		t.Fatalf("append status = %d", status)
	}
	if ar.Appended != 2 || ar.LogQueries != before.LogQueries+4 {
		t.Fatalf("append response %+v (before %d queries)", ar, before.LogQueries)
	}

	// A session append blends cross-query evidence without error.
	status = postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{
		Queries: []api.LogEntry{
			{SQL: "SELECT j.name FROM journal j"},
			{SQL: "SELECT p.title FROM publication p"},
		},
		Session: true,
	}, &ar)
	if status != http.StatusOK {
		t.Fatalf("session append status = %d", status)
	}

	// Bad SQL rejects the whole batch atomically.
	var er V1Error
	status = postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT a.name FROM author a"},
		{SQL: "SELEC nonsense"},
	}}, &er)
	if status != http.StatusBadRequest || er.Error == "" {
		t.Fatalf("bad SQL: status %d, err %q", status, er.Error)
	}
	var after api.HealthResponse
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after.LogQueries != ar.LogQueries {
		t.Fatalf("rejected batch changed the log: %d vs %d", after.LogQueries, ar.LogQueries)
	}

	// Frozen systems refuse appends.
	frozen := httptest.NewServer(NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 2).Handler())
	t.Cleanup(frozen.Close)
	if status := postJSON(t, frozen.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
		{SQL: "SELECT a.name FROM author a"},
	}}, &er); status != http.StatusConflict {
		t.Fatalf("frozen append status = %d, want 409", status)
	}
}

// TestLiveAppendsDuringTraffic hammers translate/map/log concurrently (run
// under -race): appends republish snapshots while readers translate, and
// nobody blocks or tears.
func TestLiveAppendsDuringTraffic(t *testing.T) {
	ds := datasets.MAS()
	srv := NewServer(buildLiveSystem(t, ds, keyword.Options{}), ds.Name, 4)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const clients, rounds = 6, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (c+r)%2 == 0 {
					var got V1TranslateResponse
					if s := postJSON(t, ts.URL+"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{
						{Spec: "papers:select;Databases:where"},
					}}, &got); s != http.StatusOK {
						t.Errorf("client %d: translate status %d", c, s)
						return
					} else if got.Results[0].Error != "" {
						t.Errorf("client %d: translate error %q", c, got.Results[0].Error)
						return
					}
				} else {
					var ar api.LogAppendResponse
					if s := postJSON(t, ts.URL+"/v1/log", api.LogAppendRequest{Queries: []api.LogEntry{
						{SQL: "SELECT p.title FROM publication p WHERE p.year > 2015"},
					}}, &ar); s != http.StatusOK {
						t.Errorf("client %d: append status %d", c, s)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestCanceledRequestContext drives the handlers with an already-canceled
// request context: they must return promptly without writing a response
// (the client is gone) and without panicking.
func TestCanceledRequestContext(t *testing.T) {
	ds := datasets.MAS()
	srv := NewServer(buildSystem(t, ds, keyword.Options{}), ds.Name, 2)
	h := srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/map-keywords", V1MapKeywordsRequest{KeywordsInput: api.KeywordsInput{Spec: "papers:select"}}},
		{"/v1/translate", api.TranslateRequest{Queries: []api.KeywordsInput{{Spec: "papers:select;Databases:where"}}}},
	} {
		buf, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(buf)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Body.Len() != 0 {
			t.Errorf("%s: canceled request still wrote %q", tc.path, rec.Body.String())
		}
	}
}

// TestConstructionPathsAgree is the differential gate over the ways a
// serving engine is built from one query log: compiled from the graph
// (templar.New), cold-started from a store archive (NewFromSnapshot),
// live over the graph (NewLive on qfg.NewLive), live over the archive
// (NewLive on qfg.NewLiveFromSnapshot), and the evaluation's Pipeline+
// system (nlidb.NewPipelinePlus). For every task of every dataset their
// configurations and translations must be identical.
func TestConstructionPathsAgree(t *testing.T) {
	for _, ds := range datasets.All() {
		ds := ds
		t.Run(ds.Name, func(t *testing.T) {
			graph := buildGraph(t, ds)
			ar, err := store.Decode(store.Encode(ds.Name, graph.Snapshot(nil)))
			if err != nil {
				t.Fatal(err)
			}
			opts := templar.Options{LogJoin: true}
			systems := []struct {
				name string
				sys  *templar.System
			}{
				{"archive", templar.NewFromSnapshot(ds.DB, embedding.New(), ar.Snapshot, opts)},
				{"live", templar.NewLive(ds.DB, embedding.New(), qfg.NewLive(graph), opts)},
				{"live-archive", templar.NewLive(ds.DB, embedding.New(), qfg.NewLiveFromSnapshot(ar.Snapshot), opts)},
			}
			ref := templar.New(ds.DB, embedding.New(), graph, opts)
			plus := nlidb.NewPipelinePlus(ds.DB, embedding.New(), graph, true, keyword.Options{})
			ctx := context.Background()
			translated := 0
			for _, task := range ds.Tasks {
				wantCfg, wantErr := ref.MapKeywords(ctx, task.Keywords, nil)
				wantTr, wantTrErr := ref.Translate(ctx, task.Keywords, nil)
				if wantTrErr == nil {
					translated++
				}
				for _, c := range systems {
					gotCfg, gotErr := c.sys.MapKeywords(ctx, task.Keywords, nil)
					if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(gotCfg, wantCfg) {
						t.Fatalf("%s: %s configurations diverged from templar.New\ngot:  %v (%v)\nwant: %v (%v)",
							task.ID, c.name, gotCfg, gotErr, wantCfg, wantErr)
					}
					gotTr, gotErr := c.sys.Translate(ctx, task.Keywords, nil)
					if (gotErr == nil) != (wantTrErr == nil) || !reflect.DeepEqual(gotTr, wantTr) {
						t.Fatalf("%s: %s translation diverged from templar.New\ngot:  %+v (%v)\nwant: %+v (%v)",
							task.ID, c.name, gotTr, gotErr, wantTr, wantTrErr)
					}
				}
				gotTr, gotErr := plus.Translate("", false, task.Keywords)
				if (gotErr == nil) != (wantTrErr == nil) || !reflect.DeepEqual(gotTr, wantTr) {
					t.Fatalf("%s: Pipeline+ translation diverged from templar.New\ngot:  %+v (%v)\nwant: %+v (%v)",
						task.ID, gotTr, gotErr, wantTr, wantTrErr)
				}
			}
			if translated == 0 {
				t.Fatal("no successful translations compared")
			}
		})
	}
}

// appendingCtx appends a query to a live log every time the pipeline polls
// it for cancellation, so the log state moves while a request runs.
type appendingCtx struct {
	context.Context
	live    *qfg.Live
	q       *sqlparse.Query
	appends atomic.Int32
}

func (c *appendingCtx) Err() error {
	if c.appends.Add(1) <= 64 {
		c.live.AddQuery(c.q, 1)
	}
	return nil
}

// TestTranslateBatchServesOneEngine pins that every item of a translate
// batch runs on one engine. The log grows while the batch runs (each
// cancellation poll appends a query), so an item that resolved the engine
// for itself would answer from a later log state than the items before it.
// All items translate the same keywords and must return identical results.
func TestTranslateBatchServesOneEngine(t *testing.T) {
	ds := datasets.MAS()
	live := qfg.NewLive(buildGraph(t, ds))
	sys := templar.NewLive(ds.DB, embedding.New(), live, templar.Options{LogJoin: true})
	srv := NewServer(sys, ds.Name, 1) // one worker: items run in order
	q, err := sqlparse.Parse(ds.Tasks[0].Gold)
	if err == nil {
		err = q.Resolve(nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	spec := api.KeywordsInput{Spec: "papers:select;Databases:where"}
	kws, err := keyword.ParseSpec(spec.Spec)
	if err != nil {
		t.Fatal(err)
	}

	// The appended query must move the answer, or a mixed batch would go
	// unnoticed.
	before, err := sys.Translate(context.Background(), kws, nil)
	if err != nil {
		t.Fatal(err)
	}
	live.AddQuery(q, 1)
	after, err := sys.Translate(context.Background(), kws, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("appending the query does not change the translation")
	}

	req := api.TranslateRequest{Queries: []api.KeywordsInput{spec, spec, spec, spec}}
	ctx := &appendingCtx{Context: context.Background(), live: live, q: q}
	resp, apiErr := srv.coreTranslate(ctx, sys, req)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if ctx.appends.Load() < 2 {
		t.Fatalf("only %d appends during the batch", ctx.appends.Load())
	}
	for i, r := range resp.Results {
		if r.Error != nil {
			t.Fatalf("item %d: %v", i, r.Error)
		}
		if !reflect.DeepEqual(r, resp.Results[0]) {
			first, _ := json.Marshal(resp.Results[0])
			got, _ := json.Marshal(r)
			t.Fatalf("item %d answered from a different log state than item 0:\nitem 0: %s\nitem %d: %s", i, first, i, got)
		}
	}
}

// BenchmarkTranslateEndToEnd measures POST /v1/translate through the full
// handler stack (decode, pool, mapper, join inference, SQL construction,
// encode) with the snapshot-backed scoring path.
func BenchmarkTranslateEndToEnd(b *testing.B) {
	ds := datasets.MAS()
	srv := NewServer(buildSystem(b, ds, keyword.Options{}), ds.Name, 4)
	h := srv.Handler()
	body, err := json.Marshal(api.TranslateRequest{Queries: []api.KeywordsInput{
		{Spec: "papers:select;Databases:where"},
		{Spec: "authors:select;Data Mining:where"},
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/translate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
