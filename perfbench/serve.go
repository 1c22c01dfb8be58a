package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"arthas/internal/fleet"
	"arthas/internal/workload"
)

const (
	clients = 2 // closed-loop clients: the host has 2 cores and a fleet caller waits for its reply
	shards  = 4
)

// specs are the serving workloads. Each round builds a fresh fleet, so the
// timed phase always starts from the same state and lasts the same number
// of ops: throughput and heap both drift with the ops a fleet has served.
var specs = map[string]spec{
	// Fixed per-request cost: a small hot keyspace, no inserts or deletes, so
	// chains stay short and fixed; replication and provenance are off.
	"kv-hot": {name: "kv-hot", keys: 1000, zipf: 0.99, readPct: 50,
		warmup: 5000, timed: 50000},
	// The write path: ~60-item chains per shard, allocator churn, lineage
	// records and inline log shipping to a standby replica.
	"kv-wide-repl": {name: "kv-wide-repl", keys: 16000, readPct: 10, churnPct: 5,
		replicas: true, prov: true, warmup: 1000, timed: 10000},
}

func wlOp(o op) workload.Op {
	kind := [...]workload.OpKind{opGet: workload.OpRead, opPut: workload.OpUpdate,
		opIns: workload.OpInsert, opDel: workload.OpDelete}[o.kind]
	return workload.Op{Kind: kind, Key: o.key, Value: o.val}
}

// do issues one request and reports whether the answer is the predicted one.
func do(f *fleet.Fleet, o op) (bool, error) {
	v, err := f.Do(wlOp(o))
	return err == nil && v == o.want, err
}

func genStreams(sp spec, seed uint64) []*clientStream {
	streams := make([]*clientStream, clients)
	for c := range streams {
		streams[c] = genClient(sp, clients, c, seed)
	}
	return streams
}

// setupFleet builds a fleet and preloads it in the serial interleaving.
func setupFleet(cfg fleet.Config, preload []op) (*fleet.Fleet, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, o := range preload {
		if ok, err := do(f, o); !ok {
			return nil, fmt.Errorf("preload key %d: %v", o.key, err)
		}
	}
	return f, nil
}

type servingRound struct {
	wall   time.Duration
	reads  []int64 // ns per get
	writes []int64 // ns per put/insert/delete
	heapMB float64
	wrong  int64
}

// timedPhase runs every client's warm-up, then times their remaining ops
// concurrently, each op on its own.
func timedPhase(f *fleet.Fleet, sp spec, streams []*clientStream) servingRound {
	var rd servingRound
	lat := make([][]int64, len(streams))
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	wrong := make([]int64, len(streams))
	for c, cs := range streams {
		lat[c] = make([]int64, sp.timed)
		ready.Add(1)
		done.Add(1)
		go func(c int, cs *clientStream) {
			defer done.Done()
			for _, o := range cs.ops[:sp.warmup] {
				if ok, _ := do(f, o); !ok {
					wrong[c]++
				}
			}
			ready.Done()
			<-start
			l := lat[c]
			for i, o := range cs.ops[sp.warmup:] {
				t0 := time.Now()
				ok, _ := do(f, o)
				l[i] = time.Since(t0).Nanoseconds()
				if !ok {
					wrong[c]++
				}
			}
		}(c, cs)
	}
	ready.Wait()
	runtime.GC()
	t0 := time.Now()
	close(start)
	done.Wait()
	rd.wall = time.Since(t0)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	rd.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	for c, cs := range streams {
		rd.wrong += wrong[c]
		for i, o := range cs.ops[sp.warmup:] {
			if o.kind == opGet {
				rd.reads = append(rd.reads, lat[c][i])
			} else {
				rd.writes = append(rd.writes, lat[c][i])
			}
		}
	}
	return rd
}

// checkQuiet fails unless every shard served the timed phase without a
// trap, restart, mitigation, promotion or refusal. Fleet.Do heals traps
// inline, so a shard that trapped and recovered would otherwise pass with
// the right answers and only show as latency.
func checkQuiet(f *fleet.Fleet) error {
	for _, st := range f.Stats() {
		if st.Traps+st.Restarts+st.Mitigations+st.Promotions+st.Unavailable+st.Errors != 0 {
			return fmt.Errorf("shard %d was not quiet: traps=%d restarts=%d mitigations=%d promotions=%d unavailable=%d errors=%d",
				st.Shard, st.Traps, st.Restarts, st.Mitigations, st.Promotions, st.Unavailable, st.Errors)
		}
	}
	return nil
}

// checkDurable is the serving correctness gate: the checksum-validating
// digest must match the model, and after every shard restarts (dropping
// unflushed stores) every acknowledged write must read back.
func checkDurable(f *fleet.Fleet, streams []*clientStream) error {
	sums := make([]int64, f.Shards())
	for _, cs := range streams {
		for k, v := range cs.model {
			sums[fleet.RouteFor(k, f.Shards())] += v
		}
	}
	var want int64
	for _, s := range sums {
		want = want*1000003 + s
	}
	got, err := f.StateDigest()
	if err != nil {
		return fmt.Errorf("state digest: %w", err)
	}
	if got != want {
		return fmt.Errorf("state digest %d, model says %d", got, want)
	}
	for i := 0; i < f.Shards(); i++ {
		if err := f.Restart(i); err != nil {
			return fmt.Errorf("restart shard %d: %w", i, err)
		}
	}
	for _, cs := range streams {
		for k, v := range cs.model {
			if got, err := f.Get(k); err != nil || got != v {
				return fmt.Errorf("after restart key %d = %d (%v), acknowledged %d", k, got, err, v)
			}
		}
		for _, k := range cs.deleted {
			if got, err := f.Get(k); err != nil || got != -1 {
				return fmt.Errorf("after restart deleted key %d = %d (%v)", k, got, err)
			}
		}
	}
	return nil
}

// runServing is the end-to-end measurement: rounds of fresh fleet, warm-up
// and a fixed-length timed phase, until the time budget is spent, reporting
// medians over rounds.
func runServing(rep *report, sp spec, seed uint64, budget time.Duration) {
	streams := genStreams(sp, seed)
	preload, _ := serialStream(streams)
	cfg := fleet.Config{Shards: shards, Provenance: sp.prov, Replicas: sp.replicas}
	fmt.Printf("# %s: %d shards, %d clients, %d preloaded keys, %d warm-up + %d timed ops per client per round, replicas=%v provenance=%v\n",
		sp.name, shards, clients, len(preload), sp.warmup, sp.timed, sp.replicas, sp.prov)

	var setups, walls, opsPerS, heaps, all50, all90, all99, all999, r50, r99, w50, w99 []float64
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		runtime.GC()
		t0 := time.Now()
		f, err := setupFleet(cfg, preload)
		setup := time.Since(t0)
		if err != nil {
			rep.fail("%s setup: %v", sp.name, err)
			return
		}
		rd := timedPhase(f, sp, streams)
		n := int64(len(rd.reads) + len(rd.writes))
		rep.Attempted += n
		rep.Failed += rd.wrong
		if rd.wrong > 0 {
			rep.fail("round %d: %d requests failed or answered wrong", round, rd.wrong)
		}
		if err := checkQuiet(f); err != nil {
			rep.fail("round %d: %v", round, err)
		}
		if err := checkDurable(f, streams); err != nil {
			rep.fail("round %d: %v", round, err)
		}
		if round == 0 {
			printFleetCounters(f)
		}
		allLat := append(append([]int64(nil), rd.reads...), rd.writes...)
		setups = append(setups, setup.Seconds())
		walls = append(walls, rd.wall.Seconds())
		opsPerS = append(opsPerS, float64(n)/rd.wall.Seconds())
		heaps = append(heaps, rd.heapMB)
		all50 = append(all50, pctl(allLat, 0.50))
		all90 = append(all90, pctl(allLat, 0.90))
		all99 = append(all99, pctl(allLat, 0.99))
		all999 = append(all999, pctl(allLat, 0.999))
		r50 = append(r50, pctl(rd.reads, 0.50))
		r99 = append(r99, pctl(rd.reads, 0.99))
		w50 = append(w50, pctl(rd.writes, 0.50))
		w99 = append(w99, pctl(rd.writes, 0.99))
		fmt.Printf("round %d: setup %.4fs, %d ops in %.4fs = %.0f ops/s; read p50/p99/p99.9 %.2f/%.2f/%.2f us (n=%d); write p50/p99/p99.9 %.2f/%.2f/%.2f us (n=%d); heap %.1f MB\n",
			round, setup.Seconds(), n, rd.wall.Seconds(), float64(n)/rd.wall.Seconds(),
			r50[round], r99[round], pctl(rd.reads, 0.999), len(rd.reads),
			w50[round], w99[round], pctl(rd.writes, 0.999), len(rd.writes), rd.heapMB)
		if len(rep.problems) > 0 {
			return
		}
	}
	fmt.Printf("diag suite_s=%.6f p99_us=%.3f p99.9_us=%.3f (n=%d per round) read_p50_us=%.3f read_p99_us=%.3f write_p50_us=%.3f write_p99_us=%.3f error_frac=%g rounds=%d\n",
		median(walls), median(all99), median(all999), clients*sp.timed, median(r50), median(r99), median(w50), median(w99),
		float64(rep.Failed)/float64(rep.Attempted), len(walls))
	rep.set("setup_s", median(setups))
	rep.set("ops_per_s", median(opsPerS))
	rep.set("p50_us", median(all50))
	rep.set("p90_us", median(all90))
	rep.set("heap_mb", median(heaps))
}

// printFleetCounters prints the work counters the fleet's public accessors
// expose after a round, per request served (preload, warm-up and the
// gate's reads included).
func printFleetCounters(f *fleet.Fleet) {
	req := float64(f.MergedMetrics().CounterValue("fleet.req"))
	c := fleetCounts(f)
	fmt.Printf("counters per request (n=%.0f):", req)
	for _, name := range sortedKeys(c) {
		fmt.Printf(" %s=%.3f", name, float64(c[name])/req)
	}
	fmt.Println()
}
