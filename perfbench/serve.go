package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	stem "repro"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// serve-zipf: one server on loopback with a registry attached, driven
// through the pooled client (one pooled connection per worker) with
// cache-aside over the "zipf" stream, whose keyspace is eight capacities.
// The client, the wire codec, the connection loop and loopback carry
// nearly all of a request's time; the cache's share is a fraction of a
// percent.
const (
	serveCapacity = 1 << 13 // stemload's -capacity default
	serveRate     = 20_000  // open-loop offered load of the traced run, ops/s: a third of the closed-loop rate
)

// serveSystem is one loopback server with its client and workers.
type serveSystem struct {
	cache   *stem.Cache[string, []byte]
	reg     *obs.Registry
	srv     *server.Server
	cl      *client.Client
	ws      *writers
	steps   []step
	tallies []tally
}

func (s *serveSystem) close() {
	if s.cl != nil {
		s.cl.Close()
	}
	s.srv.Close()
	s.cache.Close()
}

// buildServe starts the server, connects the client and warms the cache
// with two capacities' worth of the workers' streams.
func buildServe(cfg config) (*serveSystem, error) {
	reg := stem.NewRegistry()
	cache, err := stem.NewCache[string, []byte](stem.CacheConfig{Capacity: serveCapacity, Seed: cfg.seed, Metrics: reg})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(cache, server.Config{Metrics: reg})
	if err != nil {
		cache.Close()
		return nil, err
	}
	s := &serveSystem{cache: cache, reg: reg, srv: srv, ws: newWriters(cfg.workers)}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		cache.Close()
		return nil, err
	}
	if s.cl, err = client.New(client.Config{Addr: srv.Addr(), PoolSize: cfg.workers}); err != nil {
		s.close()
		return nil, err
	}
	if s.steps, s.tallies, err = zipfWorkers(cfg, s.cl, s.ws); err != nil {
		s.close()
		return nil, err
	}
	if err := warm(s.steps, 2*serveCapacity); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// zipfWorkers builds one cache-aside worker per load worker over store.
func zipfWorkers(cfg config, store kv, ws *writers) ([]step, []tally, error) {
	tallies := make([]tally, cfg.workers)
	var steps []step
	for w := 0; w < cfg.workers; w++ {
		next, err := workloads.NewWorkerKeyStream("zipf", serveCapacity, cfg.seed+uint64(w), w, cfg.workers)
		if err != nil {
			return nil, nil, err
		}
		steps = append(steps, cacheAside(store, next, ws, w, valueSize, &tallies[w]))
	}
	return steps, tallies, nil
}

// serverStats fetches and decodes the server's STATS document.
func serverStats(cl *client.Client) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	raw, err := cl.Stats()
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("STATS payload: %w", err)
	}
	return snap, nil
}

func runServeZipf(cfg config, r *report) error {
	s, setupS, err := setups(func() (*serveSystem, error) { return buildServe(cfg) }, (*serveSystem).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.add("setup_s", "s", setupS)

	before, err := serverStats(s.cl)
	if err != nil {
		return err
	}
	tBefore := sumTallies(s.tallies)
	closed := closedLoop(s.steps, 1, cfg.seconds, sampleEvery)
	after, err := serverStats(s.cl)
	if err != nil {
		return err
	}
	reportClosed(r, closed)
	r.check(statsAgree(before.Cache, after.Cache, tBefore, sumTallies(s.tallies)))
	r.add("hit_rate", "fraction", float64(after.Cache.Hits-before.Cache.Hits)/float64(after.Cache.Gets-before.Cache.Gets))
	r.add("heap_mb", "MiB", heapMB())
	return nil
}

// serverStages maps the server's stage histograms to the per-layer metrics
// they feed. The histograms hold whole microseconds, truncated, so a stage
// that takes well under a microsecond (a GET decode, a cache handle) mostly
// records 0 and its mean reads low; wire.get_req_decode_ns and
// stemcache.get_ns are the nanosecond measures of those stages.
var serverStages = []struct{ metric, hist string }{
	{"server.get_decode_us", "server.lat.get.decode_us"},
	{"server.get_handle_us", "server.lat.get.handle_us"},
	{"server.get_write_us", "server.lat.get.write_us"},
	{"server.set_handle_us", "server.lat.set.handle_us"},
}

// stageMark remembers a stage histogram's totals, so the mean of what it
// observed since can be read.
type stageMark struct {
	h          *obs.LatencyHistogram
	count, sum uint64
}

func markStage(reg *obs.Registry, name string) stageMark {
	h := reg.Latency(name)
	return stageMark{h, h.Count(), h.Sum()}
}

func (m stageMark) mean() float64 {
	return float64(m.h.Sum()-m.sum) / float64(m.h.Count()-m.count)
}

// layersServeZipf measures the client, server and wire layers. The traced
// pass runs on a client that traces every request, so each GET span
// (client.get_us) can be set against the echoed network share and the
// server's own stage histograms: the latency budget.
func layersServeZipf(cfg config, r *report, dur time.Duration, common bool) error {
	s, err := buildServe(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	lp := basePass(s.steps, 1, dur/3)

	// The traced passes use a client of their own that traces every
	// request; the untraced one is closed first, so no more than one
	// connection per worker is ever open.
	s.cl.Close()
	s.cl = nil
	var netSum, netN atomic.Int64
	tcl, err := client.New(client.Config{
		Addr: s.srv.Addr(), PoolSize: cfg.workers, TraceEvery: 1,
		OnTrace: func(ts client.TraceSample) {
			if ts.Op == wire.OpGet {
				netSum.Add(int64(ts.Net))
				netN.Add(1)
			}
		},
	})
	if err != nil {
		return err
	}
	defer tcl.Close()
	tsteps, _, err := zipfWorkers(cfg, tcl, s.ws)
	if err != nil {
		return err
	}
	var marks []stageMark
	for _, st := range serverStages {
		marks = append(marks, markStage(s.reg, st.hist))
	}
	lp.traced = closedLoop(tsteps, 1, dur/3, 1)
	stage := map[string]float64{}
	for i, st := range serverStages {
		stage[st.metric] = marks[i].mean()
		r.add(st.metric, "us", stage[st.metric])
	}
	lp.open = openLoop(tsteps, serveRate, dur/6, cfg.seed, false)
	lp.count(r)
	if common {
		addCommon(r, lp)
	}

	getUs := mean(lp.traced.lat.get.xs) / 1e3
	netUs := float64(netSum.Load()) / float64(netN.Load()) / 1e3
	r.add("client.get_us", "us", getUs)
	r.add("client.net_us", "us", netUs)
	codec, allocs, err := timeCodec(cfg, dur/6)
	if err != nil {
		return err
	}
	for name, ns := range codec {
		r.add(name, "ns", ns)
	}
	r.add("wire.allocs_per_op", "count", allocs)

	// The trace's network share is the client's round trip minus the
	// server's decode and handle stages, so those three partition the
	// traced span; what the GET call spends outside it is unexplained.
	// The client's codec work and the server's write stage happen inside
	// the network share and are printed as parts of it.
	dec, hdl := stage["server.get_decode_us"], stage["server.get_handle_us"]
	unexplained := getUs - (netUs + dec + hdl)
	r.add("budget.unexplained_us", "us", unexplained)
	fmt.Printf("budget     client.get_us %.2f = server decode %.2f + server handle %.2f + net %.2f + unexplained %.2f\n",
		getUs, dec, hdl, netUs, unexplained)
	fmt.Printf("           net %.2f includes server write %.2f and client codec %.3f (GET request encode + response decode)\n",
		netUs, stage["server.get_write_us"], (codec["wire.get_req_encode_ns"]+codec["wire.get_resp_decode_ns"])/1e3)
	fmt.Printf("           server stages are whole microseconds, truncated, so they read low, and net (trace total minus\n"+
		"           the server's whole-microsecond share) reads high by as much; the nanosecond measures of the decode\n"+
		"           and handle stages are wire.get_req_decode_ns %.0f and stemcache.get_ns\n",
		codec["wire.get_req_decode_ns"])
	return nil
}

// timeCodec times the wire codec on the serve-zipf request mix in the
// benchmark's own loop: each path runs over a block of frames built from
// the zipf stream, with one clock read per block. The decoders are the ones
// each side uses: the server decodes requests into a reused Request, the
// client decodes responses with the copying decoder.
func timeCodec(cfg config, dur time.Duration) (ns map[string]float64, allocsPerOp float64, err error) {
	next, err := workloads.NewWorkerKeyStream("zipf", serveCapacity, cfg.seed, 0, 1)
	if err != nil {
		return nil, 0, err
	}
	const block = 4096
	lim := wire.DefaultLimits()
	keys := make([]string, block)
	values := make([][]byte, block)
	for i := range keys {
		keys[i] = next()
		values[i] = makeValue(keys[i], uint64(i+1), valueSize)
	}
	frames := func(build func(buf []byte, i int) ([]byte, error)) ([][]byte, error) {
		out := make([][]byte, block)
		for i := range out {
			var err error
			if out[i], err = build(nil, i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	getReq := func(buf []byte, i int) ([]byte, error) {
		return wire.AppendRequest(buf, &wire.Request{Op: wire.OpGet, ID: uint32(i), Key: keys[i]}, lim)
	}
	setReq := func(buf []byte, i int) ([]byte, error) {
		return wire.AppendRequest(buf, &wire.Request{Op: wire.OpSet, ID: uint32(i), Key: keys[i], Value: values[i]}, lim)
	}
	getResp := func(buf []byte, i int) ([]byte, error) {
		return wire.AppendResponse(buf, &wire.Response{Op: wire.OpGet, ID: uint32(i), Status: wire.StatusOK, Value: values[i]}, lim)
	}
	getReqs, err := frames(getReq)
	if err != nil {
		return nil, 0, err
	}
	setReqs, err := frames(setReq)
	if err != nil {
		return nil, 0, err
	}
	getResps, err := frames(getResp)
	if err != nil {
		return nil, 0, err
	}

	var req wire.Request
	decodeReq := func(frames [][]byte) func([]byte, int) ([]byte, error) {
		return func(buf []byte, i int) ([]byte, error) {
			_, err := wire.DecodeRequestInto(&req, frames[i], lim)
			return buf, err
		}
	}
	decodeResp := func(buf []byte, i int) ([]byte, error) {
		resp, _, err := wire.DecodeResponse(getResps[i], lim)
		if err == nil && len(resp.Value) != valueSize {
			err = fmt.Errorf("decoded GET response carries %d value bytes", len(resp.Value))
		}
		return buf, err
	}
	paths := []struct {
		name string
		op   func([]byte, int) ([]byte, error)
	}{
		{"wire.get_req_encode_ns", getReq},
		{"wire.get_req_decode_ns", decodeReq(getReqs)},
		{"wire.get_resp_encode_ns", getResp},
		{"wire.get_resp_decode_ns", decodeResp},
		{"wire.set_req_encode_ns", setReq},
		{"wire.set_req_decode_ns", decodeReq(setReqs)},
	}
	ns = map[string]float64{}
	var calls, mallocs uint64
	per := dur / time.Duration(len(paths))
	for _, p := range paths {
		buf := make([]byte, 0, 512)
		var n int
		m0 := mallocCount()
		t0 := now()
		for n == 0 || now()-t0 < int64(per) {
			for i := 0; i < block; i++ {
				var err error
				if buf, err = p.op(buf[:0], i); err != nil {
					return nil, 0, fmt.Errorf("%s: %w", p.name, err)
				}
			}
			n += block
		}
		ns[p.name] = float64(now()-t0) / float64(n)
		mallocs += mallocCount() - m0
		calls += uint64(n)
	}
	return ns, float64(mallocs) / float64(calls), nil
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
