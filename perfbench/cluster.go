package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stemcache"
	"repro/internal/workloads"
)

// cluster-rf2-write: three in-process nodes with membership agents at
// replication factor 2 and a bootstrapped manager, driven through the
// routing client with an explicit 50/50 GET/SET mix over the "zipf"
// stream. Every acknowledged SET pays ring routing plus the synchronous
// fan-out to the slot's replica. No rebalancer, heartbeat or tenant epoch
// runs, so no time-triggered background work competes with the load.
const (
	clusterNodes    = 3
	clusterRF       = 2
	clusterCapacity = 1 << 13 // per node, stemload's -capacity default; also scales the zipf keyspace
	clusterRate     = 10_000  // open-loop offered load of the traced run, ops/s
	// ackChecks is how many acknowledged SETs the final check reads back
	// from the routing client and from the slot's replica.
	ackChecks = 200
)

// clusterSystem is one running cluster with its client and workers.
type clusterSystem struct {
	nodes   []*cluster.Node
	regs    []*obs.Registry
	agents  []*membership.Agent
	cl      *cluster.Client
	mgr     *membership.Manager
	ws      *writers
	steps   []step
	tallies []tally
}

func (s *clusterSystem) close() {
	for _, a := range s.agents {
		a.Close()
	}
	if s.cl != nil {
		s.cl.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

// buildCluster starts the nodes, the routing client and one agent per node,
// bootstraps the membership view, and warms the caches with four node
// capacities' worth of the workers' operations.
func buildCluster(cfg config) (*clusterSystem, error) {
	s := &clusterSystem{ws: newWriters(cfg.workers)}
	addrs := make([]string, clusterNodes)
	for i := range addrs {
		reg := obs.NewRegistry()
		node, err := cluster.StartNode(i, cluster.NodeConfig{
			Cache:  stemcache.Config{Capacity: clusterCapacity, Seed: cluster.NodeSeed(cfg.seed, i)},
			Server: server.Config{Metrics: reg},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, node)
		s.regs = append(s.regs, reg)
		addrs[i] = node.Addr()
	}
	var err error
	tpl := client.Config{PoolSize: cfg.workers}
	if s.cl, err = cluster.NewClient(cluster.Config{Addrs: addrs, Seed: cfg.seed, Client: tpl}); err != nil {
		s.close()
		return nil, err
	}
	for i, node := range s.nodes {
		s.agents = append(s.agents, membership.NewAgent(i, s.cl.Ring(), node.Server(), client.Config{}))
	}
	lister := func(n int) ([]string, error) { return s.nodes[n].Keys(), nil }
	if s.mgr, err = membership.New(s.cl, lister, addrs, membership.Config{ReplicationFactor: clusterRF}); err != nil {
		s.close()
		return nil, err
	}
	if _, err := s.mgr.Bootstrap(); err != nil {
		s.close()
		return nil, err
	}
	if s.steps, s.tallies, err = clusterWorkers(cfg, s.cl, s.ws); err != nil {
		s.close()
		return nil, err
	}
	if err := warm(s.steps, 4*clusterCapacity); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// clusterWorkers builds one worker per load worker: each operation is a
// GET or a SET with equal odds, the SET writing the key's next value. The
// next operation is drawn, and its value built, at the end of the step
// before it, so neither is timed.
func clusterWorkers(cfg config, cl *cluster.Client, ws *writers) ([]step, []tally, error) {
	tallies := make([]tally, cfg.workers)
	var steps []step
	for w := 0; w < cfg.workers; w++ {
		next, err := workloads.NewWorkerKeyStream("zipf", clusterCapacity, cfg.seed+uint64(w), w, cfg.workers)
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewPCG(cfg.seed, uint64(w)+100))
		t := &tallies[w]
		var (
			k   string
			val []byte // nil for a GET
		)
		draw := func() {
			k, val = next(), nil
			if rng.IntN(2) == 1 {
				val = makeValue(k, ws.next(w), valueSize)
			}
		}
		draw()
		steps = append(steps, func(rec *latencies, start int64) error {
			defer draw()
			if val != nil {
				err := cl.Set(k, val)
				if rec != nil {
					rec.set.add(float64(now() - start))
				}
				if err != nil {
					return fmt.Errorf("set %q: %w", k, err)
				}
				return nil
			}
			v, ok, err := cl.Get(k)
			if rec != nil {
				rec.get.add(float64(now() - start))
			}
			t.gets++
			if err != nil {
				return fmt.Errorf("get %q: %w", k, err)
			}
			if !ok {
				return nil
			}
			t.hits++
			_, err = ws.check(k, v, valueSize)
			return err
		})
	}
	return steps, tallies, nil
}

// cacheTotals sums every node's cache counters from STATS.
func (s *clusterSystem) cacheTotals() (stemcache.Stats, error) {
	var total stemcache.Stats
	raws, err := s.cl.StatsAll()
	if err != nil {
		return total, err
	}
	for i, raw := range raws {
		var snap server.StatsSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return total, fmt.Errorf("node %d STATS payload: %w", i, err)
		}
		total.Gets += snap.Cache.Gets
		total.Hits += snap.Cache.Hits
	}
	return total, nil
}

func runCluster(cfg config, r *report) error {
	s, setupS, err := setups(func() (*clusterSystem, error) { return buildCluster(cfg) }, (*clusterSystem).close)
	if err != nil {
		return err
	}
	defer s.close()
	r.add("setup_s", "s", setupS)

	before, err := s.cacheTotals()
	if err != nil {
		return err
	}
	tBefore := sumTallies(s.tallies)
	closed := closedLoop(s.steps, 1, cfg.seconds, sampleEvery)
	after, err := s.cacheTotals()
	if err != nil {
		return err
	}
	reportClosed(r, closed)
	r.check(statsAgree(before, after, tBefore, sumTallies(s.tallies)))
	r.add("hit_rate", "fraction", float64(after.Hits-before.Hits)/float64(after.Gets-before.Gets))
	s.checkAcked(cfg, r)
	r.add("heap_mb", "MiB", heapMB())
	return nil
}

// checkAcked writes ackChecks fresh keys once the load has stopped and
// reads each back right after its acknowledgement, through the routing
// client and directly from every replica of its slot: an acknowledged
// write must already exist on every node of its replica set.
func (s *clusterSystem) checkAcked(cfg config, r *report) {
	for i := 0; i < ackChecks; i++ {
		k := "ack:" + strconv.FormatUint(cfg.seed, 10) + ":" + strconv.Itoa(i)
		want := makeValue(k, s.ws.next(0), valueSize)
		r.check(func() error {
			if err := s.cl.Set(k, want); err != nil {
				return fmt.Errorf("acked-write check: set %q: %w", k, err)
			}
			_, slot := s.cl.Ring().Lookup(k)
			replicas := s.mgr.ReplicasOf(slot)
			if len(replicas) != clusterRF {
				return fmt.Errorf("acked-write check: slot %d has replicas %v, want %d nodes", slot, replicas, clusterRF)
			}
			got, ok, err := s.cl.Get(k)
			if err == nil && (!ok || !bytes.Equal(got, want)) {
				err = fmt.Errorf("routed read found=%v", ok)
			}
			for _, n := range replicas {
				if err != nil {
					break
				}
				got, ok, err = s.cl.NodeClient(n).Get(k)
				if err == nil && (!ok || !bytes.Equal(got, want)) {
					err = fmt.Errorf("node %d found=%v", n, ok)
				}
			}
			if err != nil {
				return fmt.Errorf("acked-write check: %q does not read back: %w", k, err)
			}
			return nil
		}())
	}
}

// layersCluster measures the cluster and membership layers: routing cost,
// per-call GET and SET spans through the routing client, requests the nodes
// served beyond one per operation (replica retries), and the replication op
// the agents fan out.
func layersCluster(cfg config, r *report, dur time.Duration, common bool) error {
	s, err := buildCluster(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	served := func() uint64 {
		var n uint64
		for _, reg := range s.regs {
			n += reg.Latency("server.lat.get.handle_us").Count() + reg.Latency("server.lat.set.handle_us").Count()
		}
		return n
	}
	servedBefore := served()
	lp := measureLayers(r, s.steps, 1, s.steps, dur/3, clusterRate, cfg.seed, false)
	if common {
		addCommon(r, lp)
	}
	ops := lp.base.ops + lp.traced.ops + lp.open.ops
	r.add("cluster.replica_retries", "count", float64(int64(served()-servedBefore)-ops))
	r.add("cluster.get_us", "us", mean(lp.traced.lat.get.xs)/1e3)
	r.add("cluster.set_us", "us", mean(lp.traced.lat.set.xs)/1e3)

	// Routing: Ring.Lookup over a block of the workload's keys.
	next, err := workloads.NewWorkerKeyStream("zipf", clusterCapacity, cfg.seed, 0, 1)
	if err != nil {
		return err
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = next()
	}
	ring := s.cl.Ring()
	var n, sink int
	t0 := now()
	for n == 0 || now()-t0 < int64(dur/6) {
		for _, k := range keys {
			node, _ := ring.Lookup(k)
			sink += node
		}
		n += len(keys)
	}
	r.add("cluster.route_ns", "ns", float64(now()-t0)/float64(n))
	runtime.KeepAlive(sink)

	// Replication: the Replicate op an agent sends a follower, timed
	// against each key's replica node.
	var repNs []float64
	t0 = now()
	for i := 0; now()-t0 < int64(dur/6); i++ {
		k := keys[i%len(keys)]
		_, slot := ring.Lookup(k)
		replicas := s.mgr.ReplicasOf(slot)
		if len(replicas) != clusterRF {
			return fmt.Errorf("slot %d has replicas %v, want %d nodes", slot, replicas, clusterRF)
		}
		val := makeValue(k, s.ws.next(0), valueSize)
		t := now()
		err := s.cl.NodeClient(replicas[len(replicas)-1]).Replicate("", k, val, 0)
		repNs = append(repNs, float64(now()-t))
		r.check(err)
	}
	r.add("membership.replicate_us", "us", mean(repNs)/1e3)
	return nil
}
