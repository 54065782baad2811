package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"templar/internal/datasets"
	"templar/internal/embedding"
	"templar/internal/fragment"
	"templar/internal/keyword"
	"templar/internal/qfg"
	"templar/internal/serve"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/templar"
	"templar/internal/wal"
	"templar/pkg/client"
)

// engineOptions are templar-serve's defaults (-kappa 5 -lambda 0.8
// -log-join), so every tenant here serves the way a default deployment
// does.
var engineOptions = templar.Options{
	Keyword: keyword.Options{K: 5, Lambda: 0.8},
	LogJoin: true,
}

// writeTenant is the tenant that takes log appends: booted from a store
// archive written at setup, with a write-ahead log at the production
// default (fsync every append).
type writeTenant struct {
	t       *serve.Tenant
	ds      *datasets.Dataset
	archive string
	walDir  string
	// mappings are the archive mappings of every boot of this tenant; they
	// are closed only when the run ends, because snapshots descended from a
	// boot snapshot alias them.
	mappings []*store.Mapped
}

// env is one set-up workload: the tenants, the registry server on a
// loopback listener and the client that drives it.
type env struct {
	dir      string
	reads    []*serve.Tenant // tenants the read stream targets
	readSets []*datasets.Dataset
	write    *writeTenant
	reg      *serve.Registry
	srv      *http.Server
	served   chan error
	client   *client.Client
	// transport is the client's connection pool, closed with the env.
	transport *http.Transport
}

// gold parses a dataset's gold log as independent entries of count 1 —
// the log every tenant here is built from.
func gold(ds *datasets.Dataset) ([]sqlparse.LogEntry, error) {
	entries := make([]sqlparse.LogEntry, 0, len(ds.Tasks))
	for _, t := range ds.Tasks {
		q, err := sqlparse.Parse(t.Gold)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.ID, err)
		}
		entries = append(entries, sqlparse.LogEntry{Query: q, Count: 1})
	}
	return entries, nil
}

// buildLive mines a dataset's gold log into a live QFG.
func buildLive(ds *datasets.Dataset) (*qfg.Live, error) {
	entries, err := gold(ds)
	if err != nil {
		return nil, err
	}
	g, err := qfg.Build(entries, fragment.NoConstOp)
	if err != nil {
		return nil, err
	}
	return qfg.NewLive(g), nil
}

// bootTimes splits one boot: store.Open, the live wrap, the engine build,
// the WAL replay and the first translate.
type bootTimes struct {
	open, wrap, engine, replay, first time.Duration
}

func (b bootTimes) total() time.Duration { return b.open + b.wrap + b.engine + b.replay + b.first }

// bootTenant boots a tenant the way templar-serve does with -store and
// -wal: open the archive, wrap it live, build the engine, attach and
// replay the WAL, then answer one translate.
func bootTenant(ctx context.Context, ds *datasets.Dataset, name, archive, walDir string, probe []keyword.Keyword) (*serve.Tenant, *store.Mapped, bootTimes, error) {
	var bt bootTimes
	t0 := time.Now()
	m, err := store.Open(archive)
	if err != nil {
		return nil, nil, bt, err
	}
	t1 := time.Now()
	live := qfg.NewLiveFromSnapshot(m.Snapshot)
	t2 := time.Now()
	sys := templar.NewLive(ds.DB, embedding.New(), live, engineOptions)
	t3 := time.Now()
	t := &serve.Tenant{Name: name, Sys: sys, Source: "store", StorePath: archive, SnapshotSeq: m.WalSeq}
	if m.Mmapped() {
		t.Mapping = m
	}
	if _, err := serve.AttachWAL(t, walDir, wal.Options{}); err != nil {
		m.Close()
		return nil, nil, bt, err
	}
	t4 := time.Now()
	if _, err := sys.Translate(ctx, probe, nil); err != nil {
		t.WAL.Close()
		m.Close()
		return nil, nil, bt, fmt.Errorf("first translate: %w", err)
	}
	t5 := time.Now()
	bt = bootTimes{open: t1.Sub(t0), wrap: t2.Sub(t1), engine: t3.Sub(t2), replay: t4.Sub(t3), first: t5.Sub(t4)}
	t.LoadTime = bt.total()
	return t, m, bt, nil
}

// newWriteTenant packs a dataset's freshly mined log into an archive under
// dir and boots a WAL-armed tenant from it.
func newWriteTenant(ctx context.Context, dir string, ds *datasets.Dataset, name string) (*writeTenant, error) {
	live, err := buildLive(ds)
	if err != nil {
		return nil, err
	}
	archive := filepath.Join(dir, store.Filename(name))
	if err := store.WriteFile(archive, name, live.CurrentSnapshot()); err != nil {
		return nil, err
	}
	w := &writeTenant{ds: ds, archive: archive, walDir: filepath.Join(dir, "wal")}
	if err := os.MkdirAll(w.walDir, 0o755); err != nil {
		return nil, err
	}
	t, m, _, err := bootTenant(ctx, ds, name, archive, w.walDir, ds.Tasks[0].Keywords)
	if err != nil {
		return nil, err
	}
	w.t = t
	w.mappings = append(w.mappings, m)
	return w, nil
}

// readTenant builds a tenant from its gold log, as templar-serve does
// without -store.
func readTenant(ds *datasets.Dataset) (*serve.Tenant, error) {
	start := time.Now()
	live, err := buildLive(ds)
	if err != nil {
		return nil, err
	}
	sys := templar.NewLive(ds.DB, embedding.New(), live, engineOptions)
	return &serve.Tenant{Name: ds.Name, Sys: sys, Source: "built", LoadTime: time.Since(start)}, nil
}

// setup builds a workload's tenants and starts the registry server on a
// loopback listener. Everything a user would wait for before the first
// request counts here; the benchmark's own expected answers do not.
func setup(ctx context.Context, wl string, dir string, nproc int) (*env, error) {
	reg := serve.NewRegistry()
	e := &env{dir: dir, reg: reg}
	switch wl {
	case "serve-read":
		for _, name := range []string{"mas", "yelp", "imdb"} {
			ds, _ := datasets.ByName(name)
			t, err := readTenant(ds)
			if err != nil {
				return nil, err
			}
			e.reads = append(e.reads, t)
			e.readSets = append(e.readSets, ds)
		}
		mas, _ := datasets.ByName("mas")
		w, err := newWriteTenant(ctx, dir, mas, mas.Name+"-w")
		if err != nil {
			return nil, err
		}
		e.write = w
	case "scale-append":
		ds, err := tile(datasets.MAS(), tileFactor, tileSeed)
		if err != nil {
			return nil, err
		}
		w, err := newWriteTenant(ctx, dir, ds, ds.Name)
		if err != nil {
			return nil, err
		}
		e.write = w
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-read or scale-append)", wl)
	}
	for _, t := range append(append([]*serve.Tenant(nil), e.reads...), e.write.t) {
		if err := reg.Add(t); err != nil {
			return nil, err
		}
	}
	srv := serve.NewRegistryServer(reg, e.write.t.Name, 0, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.srv = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	// One keep-alive connection per client goroutine, and no client-side
	// retries: a refused or failed call must count as failed.
	e.transport = &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}
	hc := &http.Client{Transport: e.transport, Timeout: 30 * time.Second}
	e.client, err = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(hc), client.WithRetries(0))
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the server and releases every WAL and archive mapping.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.srv.Shutdown(ctx) // a timeout here still closes the listener
		cancel()
		if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		}
		e.srv = nil
	}
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	if e.write != nil {
		if e.write.t.WAL != nil {
			e.write.t.WAL.Close()
		}
		for _, m := range e.write.mappings {
			m.Close()
		}
		e.write.mappings = nil
	}
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
