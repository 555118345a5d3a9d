package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"olapdim"
	"olapdim/internal/obs"
	"olapdim/internal/server"
)

// layerUnits names every per-layer metric with its unit.
var layerUnits = map[string]string{
	"loopback.read_us":               "us",
	"loopback.sources_us":            "us",
	"loopback.job_ack_us":            "us",
	"server.read_us":                 "us",
	"server.sources_us":              "us",
	"server.self_us":                 "us",
	"server.alloc_kb_per_req":        "KiB",
	"server.gc_cycles_per_kreq":      "count",
	"core.implies_hit_us":            "us",
	"core.summarizable_hit_us":       "us",
	"core.sources_hit_us":            "us",
	"core.sources_hit_allocs":        "count",
	"core.implies_cold_us":           "us",
	"core.expansions_per_req":        "count",
	"core.cache_hit_ratio":           "ratio",
	"core.engine_cpu_share":          "ratio",
	"core.compile_us":                "us",
	"parser.parse_us":                "us",
	"parser.parse_allocs":            "count",
	"constraint.render_us":           "us",
	"jobs.submit_us":                 "us",
	"jobs.turnaround_us":             "us",
	"jobs.checkpoint_writes_per_job": "count",
	"obs.spans_per_req":              "count",
	"trace.overhead_pct":             "%",
}

// Traced-run sizes: the probes of the hit rungs sample this many keys per
// operation, and the job-store rung runs this many jobs.
const (
	hitKeys    = 24
	ladderJobs = 60
)

// replayReads returns the first w.replay requests of the stream, without
// the job submits (the job-store rung covers those).
func replayReads(st *stream) []*request {
	var out []*request
	for i := 0; i < st.w.replay; i++ {
		if r := st.at(i); r.op != opJob {
			out = append(out, r)
		}
	}
	return out
}

// ladder replays the stream in process rung by rung and returns the
// per-layer metrics. Every call into a layer is a span whose parent is
// the replayed request, so a layer's self time is its span minus the span
// of the rung below for the same request.
func (b *bench) ladder(ctx context.Context, ds *olapdim.DimensionSchema, sp *space, st *stream, spans *spanLog, cpuPerReq float64) (map[string]float64, error) {
	m := map[string]float64{}
	reads := replayReads(st)
	roots := make([]int64, len(reads))
	for i := range roots {
		roots[i] = spans.root()
	}

	// Rung: server.ServeHTTP through httptest, no socket.
	srv, store, err := newServer(ds)
	if err != nil {
		return nil, err
	}
	for _, r := range st.warm {
		if err := serve(srv, r); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	spans0 := store.Recorded()
	for i, r := range reads {
		start := time.Now()
		err := serve(srv, r)
		spans.add("server.ServeHTTP", roots[i], start, time.Since(start))
		if err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms1)
	m["server.alloc_kb_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(reads))
	m["obs.spans_per_req"] = float64(store.Recorded()-spans0) / float64(len(reads))
	m["server.read_us"] = us(quantile(spans.all("server.ServeHTTP"), 0.5))
	srcKeys := sp.sourcesKeys()
	for _, r := range srcKeys {
		if err := serve(srv, r); err != nil { // fills the cache
			return nil, err
		}
	}
	var srcServe []time.Duration
	for len(srcServe) < 4*len(srcKeys) {
		for _, r := range srcKeys {
			start := time.Now()
			if err := serve(srv, r); err != nil {
				return nil, err
			}
			srcServe = append(srcServe, time.Since(start))
		}
	}
	m["server.sources_us"] = us(quantile(srcServe, 0.5))

	// Rung: the facade call each handler makes, with exact work counters.
	cnt, err := replayCore(ctx, ds, st, reads, roots, spans)
	if err != nil {
		return nil, err
	}
	for k, v := range cnt {
		m[k] = v
	}
	serveBy := spans.durations("server.ServeHTTP")
	var self []time.Duration
	var coreTimes []time.Duration
	for p, c := range spans.durations("core.call") {
		self = append(self, serveBy[p]-c)
		coreTimes = append(coreTimes, c)
	}
	m["server.self_us"] = us(quantile(self, 0.5))
	// The engine's share of the daemon's CPU: mean in-process facade time
	// per replayed request over the daemon's CPU per request.
	m["core.engine_cpu_share"] = us(mean(coreTimes)) / cpuPerReq

	if err := hitRungs(ctx, ds, sp, b.seed, m); err != nil {
		return nil, err
	}

	// Rung: parse and render of every implication body replayed.
	var parse, render []time.Duration
	var allocs []float64
	for i, r := range reads {
		if r.op != opImplies {
			continue
		}
		var alpha olapdim.Constraint
		var err error
		d, a := timed(func() { alpha, err = olapdim.ParseConstraint(r.constraint) })
		if err != nil {
			return nil, err
		}
		spans.add("parser.ParseConstraint", roots[i], time.Now().Add(-d), d)
		parse, allocs = append(parse, d), append(allocs, a)
		d, _ = timed(func() { _ = alpha.String() })
		spans.add("constraint.String", roots[i], time.Now().Add(-d), d)
		render = append(render, d)
	}
	m["parser.parse_us"] = us(quantile(parse, 0.5))
	m["parser.parse_allocs"] = medianFloat(allocs)
	m["constraint.render_us"] = us(quantile(render, 0.5))

	d, _ := timed(func() { olapdim.Compile(ds) })
	m["core.compile_us"] = us(d)

	jm, err := jobRung(st.probeJobs[:ladderJobs], ds, b.w.checkpointEvery, filepath.Join(b.dir, "ladder-jobs"))
	if err != nil {
		return nil, err
	}
	for k, v := range jm {
		m[k] = v
	}
	return m, nil
}

// newServer builds the handler dimsatd builds, with dimsatd's defaults.
func newServer(ds *olapdim.DimensionSchema) (http.Handler, *obs.SpanStore, error) {
	store := obs.NewSpanStore(2048, "server")
	srv, err := server.NewWithConfig(ds, server.Config{
		Options:              olapdim.Options{Cache: olapdim.NewSatCache()},
		RequestTimeout:       10 * time.Second,
		Spans:                store,
		SlowSearchExpansions: 100000,
	})
	return srv, store, err
}

// serve answers r through h in process and fails unless it answers 200.
func serve(h http.Handler, r *request) error {
	req := httptest.NewRequest(r.method, r.path, strings.NewReader(r.body))
	if r.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s: status %d: %s", r.key(), rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// timed runs f in batches until 200µs have passed and returns the mean
// time and heap allocations per call, so calls far below the timer's
// resolution are still measured.
func timed(f func()) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
		if time.Since(start) >= 200*time.Microsecond {
			break
		}
	}
	d := time.Since(start) / time.Duration(n)
	runtime.ReadMemStats(&m1)
	return d, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replayCore replays reads through the facade after the workload's
// warm-up, on a fresh cache, and returns the exact work counters plus the
// cold implication time. Each call is a core.call span under its request.
func replayCore(ctx context.Context, ds *olapdim.DimensionSchema, st *stream, reads []*request, roots []int64, spans *spanLog) (map[string]float64, error) {
	d, err := newDecider(ds)
	if err != nil {
		return nil, err
	}
	var cold []time.Duration
	call := func(r *request) (time.Duration, error) {
		misses := d.opts.Cache.Stats().Misses
		start := time.Now()
		_, err := d.decide(ctx, r)
		el := time.Since(start)
		if r.op == opImplies && d.opts.Cache.Stats().Misses > misses {
			cold = append(cold, el)
		}
		return el, err
	}
	for _, r := range st.warm {
		if _, err := call(r); err != nil {
			return nil, err
		}
	}
	c0, e0 := d.opts.Cache.Stats(), d.opts.Effort.Stats()
	for i, r := range reads {
		start := time.Now()
		el, err := call(r)
		if err != nil {
			return nil, err
		}
		if spans != nil {
			spans.add("core.call", roots[i], start, el)
		}
	}
	c1, e1 := d.opts.Cache.Stats(), d.opts.Effort.Stats()
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	m := map[string]float64{
		"core.expansions_per_req": float64(e1.Expansions-e0.Expansions) / float64(len(reads)),
		"core.cache_hit_ratio":    hits / (hits + misses),
		"core.implies_cold_us":    us(quantile(cold, 0.5)),
	}
	return m, nil
}

// hitRungs times implies, summarizable and sources hits through the
// facade: a sample of the hot keyspace is decided once, then each key is
// timed in batches.
func hitRungs(ctx context.Context, ds *olapdim.DimensionSchema, sp *space, seed int64, m map[string]float64) error {
	d, err := newDecider(ds)
	if err != nil {
		return err
	}
	byOp := map[string][]*request{opSources: sp.sourcesKeys()}
	for _, r := range sp.hotKeys() {
		if r.op != opSources {
			byOp[r.op] = append(byOp[r.op], r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, op := range []string{opImplies, opSummarizable, opSources} {
		keys := byOp[op]
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		if len(keys) > hitKeys {
			keys = keys[:hitKeys]
		}
		var ts []time.Duration
		var as []float64
		for _, r := range keys {
			if _, err := d.decide(ctx, r); err != nil {
				return err
			}
			t, a := timed(func() { d.decide(ctx, r) })
			ts, as = append(ts, t), append(as, a)
		}
		m["core."+op+"_hit_us"] = us(quantile(ts, 0.5))
		if op == opSources {
			m["core.sources_hit_allocs"] = medianFloat(as)
		}
	}
	return nil
}

// jobRung runs jobs one at a time through an in-process job store with
// dimsatd's checkpoint period: submit (the durable record write) and
// turnaround (submit to done) per job, plus the store's checkpoint-write
// counter per job.
func jobRung(constraints []string, ds *olapdim.DimensionSchema, checkpointEvery int, dir string) (map[string]float64, error) {
	store, err := olapdim.OpenJobStore(olapdim.JobStoreConfig{Dir: dir, Schema: ds, CheckpointEvery: checkpointEvery})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer store.Close()
	store.Start()
	var submit, turn []time.Duration
	for _, c := range constraints {
		start := time.Now()
		st, _, err := store.Submit(olapdim.JobRequest{Kind: "implies", Constraint: c})
		if err != nil {
			return nil, err
		}
		submit = append(submit, time.Since(start))
		for !st.State.Terminal() {
			time.Sleep(20 * time.Microsecond)
			if st, err = store.Status(st.ID); err != nil {
				return nil, err
			}
		}
		turn = append(turn, time.Since(start))
		if st.State != "done" {
			return nil, fmt.Errorf("in-process job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	return map[string]float64{
		"jobs.submit_us":                 us(quantile(submit, 0.5)),
		"jobs.turnaround_us":             us(quantile(turn, 0.5)),
		"jobs.checkpoint_writes_per_job": float64(store.Counters().CheckpointWrites) / float64(len(constraints)),
	}, nil
}
