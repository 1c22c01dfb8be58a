package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"arthas/internal/faults"
	"arthas/internal/fleet"
	"arthas/internal/obs"
	"arthas/internal/systems"
)

// kvSystem deploys the fleet's KV store the way a shard runs it (64Ki-word
// pool, init_/recover_), minus the fleet.
var kvSystem = &systems.System{Name: "kv", Source: fleet.KVSource, PoolWords: 1 << 16,
	InitFn: "init_", RecoverFn: "recover_"}

func kvCall(d *systems.Deployment, o op) error {
	fn, args := "put", []int64{o.key, o.val}
	switch o.kind {
	case opGet:
		fn, args = "get", []int64{o.key}
	case opDel:
		fn, args = "del", []int64{o.key}
	}
	v, trap := d.Call(fn, args...)
	if trap != nil {
		return fmt.Errorf("%s %d: %v", fn, o.key, trap)
	}
	if v != o.want {
		return fmt.Errorf("%s %d = %d, want %d", fn, o.key, v, o.want)
	}
	return nil
}

// deployRung builds one deployment per shard, routing keys the way the
// fleet does, so every rung holds the same data per pool as a fleet shard.
func deployRung(opts systems.DeployOpts, withObs bool, preload, warm []op, chunks [][]op) func() (*target, error) {
	return func() (*target, error) {
		ds := make([]*systems.Deployment, shards)
		var recs []*obs.Recorder
		for i := range ds {
			o := opts
			if withObs {
				r := obs.NewRecorder()
				recs = append(recs, r)
				o.Obs = r
			}
			d, err := systems.Deploy(kvSystem, o)
			if err != nil {
				return nil, err
			}
			ds[i] = d
		}
		exec := func(ops []op) error {
			for _, o := range ops {
				if err := kvCall(ds[fleet.RouteFor(o.key, shards)], o); err != nil {
					return err
				}
			}
			return nil
		}
		if err := exec(preload); err != nil {
			return nil, err
		}
		return &target{
			warm:   func() error { return exec(warm) },
			chunk:  func(k int) error { return exec(chunks[k]) },
			counts: func() map[string]int64 { return deploymentCounts(ds, recs) },
		}, nil
	}
}

func fleetRung(prov, replicas bool, preload, warm []op, chunks [][]op) func() (*target, error) {
	return func() (*target, error) {
		f, err := setupFleet(fleet.Config{Shards: shards, Provenance: prov, Replicas: replicas}, preload)
		if err != nil {
			return nil, err
		}
		exec := func(ops []op) error {
			for _, o := range ops {
				if ok, err := do(f, o); !ok {
					return fmt.Errorf("%s %d: wrong answer (%v)", kindNames[o.kind], o.key, err)
				}
			}
			return nil
		}
		return &target{
			warm:   func() error { return exec(warm) },
			chunk:  func(k int) error { return exec(chunks[k]) },
			counts: func() map[string]int64 { return fleetCounts(f) },
		}, nil
	}
}

// fleetCounts reads a fleet's work counters from MergedMetrics and Stats.
func fleetCounts(f *fleet.Fleet) map[string]int64 {
	m := f.MergedMetrics()
	c := map[string]int64{}
	for _, name := range []string{"vm.instructions", "pmem.load", "pmem.store", "pmem.persist",
		"pmem.persisted_words", "pmem.alloc", "ckpt.versions", "trace.read_events", "trace.events",
		"prov.lineage_records"} {
		c[name] = m.CounterValue(name)
	}
	for i, st := range f.Stats() {
		c[fmt.Sprintf("fleet.shard%d.ops", i)] = st.Ops
		if st.Repl != nil {
			c["repl.records"] += int64(st.Repl.Records)
			c["repl.ships"] += int64(st.Repl.Ships)
			c["repl.resyncs"] += int64(st.Repl.Resyncs)
		}
	}
	return c
}

// traceServing is the serving workloads' traced run: the clients' streams
// interleaved into one single-threaded replay, timed on every rung from a
// vanilla deployment up to a replicated fleet with provenance.
func traceServing(rep *report, sp spec, seed uint64, budget time.Duration) {
	preload, ops := serialStream(genStreams(sp, seed))
	warm, timed := ops[:clients*sp.warmup], ops[clients*sp.warmup:]
	var chunks [][]op
	var chunkOps []int
	size := max(len(timed)/50, 1)
	for i := 0; i < len(timed); i += size {
		c := timed[i:min(i+size, len(timed))]
		chunks = append(chunks, c)
		chunkOps = append(chunkOps, len(c))
	}
	fmt.Printf("# %s traced: single-client replay of %d preload, %d warm-up and %d timed ops in chunks of %d\n",
		sp.name, len(preload), len(warm), len(timed), size)
	dep := func(opts systems.DeployOpts, withObs bool) func() (*target, error) {
		return deployRung(opts, withObs, preload, warm, chunks)
	}
	fl := func(prov, replicas bool) func() (*target, error) {
		return fleetRung(prov, replicas, preload, warm, chunks)
	}
	rungs := []rung{
		{"vanilla", dep(systems.DeployOpts{SkipAnalysis: true}, false)},
		{"ckpt", dep(systems.DeployOpts{SkipAnalysis: true, Checkpoint: true}, false)},
		{"trace", dep(systems.DeployOpts{Checkpoint: true, Trace: true}, false)},
		{"obs", dep(systems.DeployOpts{Checkpoint: true, Trace: true}, true)},
		{"fleet", fl(false, false)},
		{"prov", fl(true, false)},
		{"repl", fl(true, true)},
	}
	setupCosts(rep)
	lr := runLadder(rep, ladder{rungs: rungs, chunkOps: chunkOps}, 2, budget)
	if len(rep.problems) > 0 {
		return
	}
	rep.Attempted = int64(lr.ops * lr.passes * len(rungs))
	full := "fleet"
	if sp.replicas {
		full = "repl"
	}
	reportLadder(rep, lr, full)

	fc := lr.counts[lr.index("fleet")]
	var total, busiest int64
	for i := 0; i < shards; i++ {
		n := fc[fmt.Sprintf("fleet.shard%d.ops", i)]
		total += n
		busiest = max(busiest, n)
	}
	rep.set("fleet.busiest_shard_frac", float64(busiest)/float64(total))
	rep.set("repl.records_per_op", lr.perOp("repl", "repl.records"))
	rep.set("repl.ships_per_kop", 1000*lr.perOp("repl", "repl.ships"))
	rep.set("repl.resyncs", float64(lr.counts[lr.index("repl")]["repl.resyncs"]))
	idle(rep, "reactor", "pipeline")
}

// caseRung builds every fault case on one rung and times the pre-trigger
// workload RunArthas runs before the bug fires: the paper systems' serving
// path, as in the paper's Table 8 overhead split.
func caseRung(bs []faults.Builder, pre []int, opts systems.DeployOpts, withObs bool) func() (*target, error) {
	return func() (*target, error) {
		cases := make([]*faults.Case, len(bs))
		ds := make([]*systems.Deployment, len(bs))
		var recs []*obs.Recorder
		for i, b := range bs {
			o := opts
			if withObs {
				r := obs.NewRecorder()
				recs = append(recs, r)
				o.Obs = r
			}
			c, err := b.New(o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.ID, err)
			}
			cases[i], ds[i] = c, c.D
		}
		return &target{
			warm: func() error { return nil },
			chunk: func(k int) error {
				cases[k].Workload(pre[k], nil)
				return nil
			},
			counts: func() map[string]int64 { return deploymentCounts(ds, recs) },
		}, nil
	}
}

// traceMitigate is mitigate-paper's traced run: the layer ladder over the
// cases' pre-trigger workloads, then the suite twice with a recorder per
// case, summing the pipeline and reactor spans the program emits.
func traceMitigate(rep *report, seed uint64, budget time.Duration) {
	bs := caseOrder(seed)
	pre := preTrigger(bs)
	ops := 0
	for _, n := range pre {
		ops += n
	}
	fmt.Printf("# mitigate-paper traced: ladder over %d pre-trigger workload ops, then 2 traced suites\n", ops)
	rungs := []rung{
		{"vanilla", caseRung(bs, pre, systems.DeployOpts{SkipAnalysis: true}, false)},
		{"ckpt", caseRung(bs, pre, systems.DeployOpts{SkipAnalysis: true, Checkpoint: true}, false)},
		{"trace", caseRung(bs, pre, systems.DeployOpts{Checkpoint: true, Trace: true}, false)},
		{"obs", caseRung(bs, pre, systems.DeployOpts{Checkpoint: true, Trace: true}, true)},
		{"prov", caseRung(bs, pre, systems.DeployOpts{Checkpoint: true, Trace: true, Provenance: true}, true)},
	}
	setupCosts(rep)
	t0 := time.Now()
	var spans [2]map[string]float64
	var first map[string]map[string]int64
	var attempts, reverted, recovered int
	for pass := 0; pass < 2; pass++ {
		spans[pass] = map[string]float64{}
		counts := map[string]map[string]int64{}
		attempts, reverted, recovered = 0, 0, 0
		for _, b := range bs {
			rec := obs.NewRecorder()
			runtime.GC()
			out, err := faults.RunArthas(b, faults.RunConfig{Obs: rec})
			if err != nil {
				rep.fail("%s: %v", b.ID, err)
				return
			}
			rep.Attempted++
			if why := mitigated(b, out); why != "" {
				rep.Failed++
				rep.fail("%s: %s", b.ID, why)
			}
			attempts += out.Attempts
			reverted += out.RevertedItems
			if out.Recovered {
				recovered++
			}
			c := map[string]int64{"outcome.attempts": int64(out.Attempts), "outcome.reverted": int64(out.RevertedItems)}
			for _, s := range rec.CountersInOrder() {
				c[s.Name] = s.Value
			}
			counts[b.ID] = c
			for _, s := range rec.Spans() {
				switch s.Name {
				case "reactor.plan", "reactor.reexec", "reactor.revert", "pipeline.run", "pipeline.detect":
					spans[pass][s.Name] += s.Dur.Seconds() * 1e3
				}
			}
		}
		if first == nil {
			first = counts
			continue
		}
		for id, c := range counts {
			if !sameCounts(c, first[id]) {
				rep.fail("broken benchmark: %s work counts differ between traced suites: %v vs %v", id, c, first[id])
			}
		}
	}
	fmt.Printf("traced suites: %.1fs\n", time.Since(t0).Seconds())
	for _, name := range []string{"reactor.plan", "reactor.reexec", "reactor.revert", "pipeline.run", "pipeline.detect"} {
		rep.set(name+"_ms", (spans[0][name]+spans[1][name])/2)
	}
	rep.set("reactor.attempts", float64(attempts))
	rep.set("reactor.useful_attempt_frac", float64(recovered)/float64(attempts))
	rep.set("reactor.reverted_versions", float64(reverted))
	for _, b := range bs {
		c := first[b.ID]
		fmt.Printf("case %-3s attempts=%d reverted=%d vm.instructions=%d pmem.persist=%d ckpt.versions=%d\n",
			b.ID, c["outcome.attempts"], c["outcome.reverted"], c["vm.instructions"], c["pmem.persist"], c["ckpt.versions"])
	}
	if len(rep.problems) > 0 {
		return
	}
	lr := runLadder(rep, ladder{rungs: rungs, chunkOps: pre, perPass: true}, 5, budget-time.Since(t0))
	if len(rep.problems) > 0 {
		return
	}
	rep.Attempted += int64(lr.ops * lr.passes * len(rungs))
	reportLadder(rep, lr, "obs")
	idle(rep, "fleet", "repl")
}

// idle reports 0 for the per-layer metrics of layers the workload does not
// exercise.
func idle(rep *report, layers ...string) {
	for _, m := range perLayer {
		for _, l := range layers {
			if strings.HasPrefix(m.name, l+".") {
				rep.set(m.name, 0)
			}
		}
	}
}
