package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"arthas/internal/analysis"
	"arthas/internal/fleet"
	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/systems"
)

// The traced run replays one op stream single-threaded on a ladder of
// builds, each adding one layer to the rung below it, and takes a layer's
// self time as the per-op difference between adjacent rungs. All rungs are
// built side by side and take turns on each chunk of the stream, in
// alternating order, so the host's speed drifting over seconds lands on
// every rung alike instead of on whichever rung ran during a slow spell.

// target is one built and preloaded rung: warm runs the untimed warm-up,
// chunk runs one chunk of the timed ops, and counts reads the cumulative
// work counters the program's public accessors expose.
type target struct {
	warm   func() error
	chunk  func(k int) error
	counts func() map[string]int64
}

type rung struct {
	layer string // the layer this rung adds; "vanilla" for the base
	build func() (*target, error)
}

// ladder is a traced run's plan: the rungs and the timed ops in each chunk.
// With perPass, chunks carry unequal work (one fault case each), so a
// sample is a whole pass instead of one chunk.
type ladder struct {
	rungs    []rung
	chunkOps []int
	perPass  bool
}

// ladderResult holds, per rung, the per-op time of every sample and the
// work counts of one pass's timed ops (which must repeat exactly).
type ladderResult struct {
	rungs  []rung
	usOp   [][]float64
	counts []map[string]int64
	alloc  []uint64 // bytes allocated by the timed ops, first pass
	gcs    []uint32 // GC cycles that ended while the rung ran, first pass
	ops    int      // timed ops per pass
	passes int
}

func (lr *ladderResult) index(layer string) int {
	for i, r := range lr.rungs {
		if r.layer == layer {
			return i
		}
	}
	return -1
}

// perOp returns a work count of one rung divided by the timed ops.
func (lr *ladderResult) perOp(layer, name string) float64 {
	i := lr.index(layer)
	if i < 0 {
		return 0
	}
	return float64(lr.counts[i][name]) / float64(lr.ops)
}

func delta(after, before map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runLadder builds and replays every rung at least minPasses times and
// until budget is spent.
func runLadder(rep *report, ld ladder, minPasses int, budget time.Duration) *ladderResult {
	n := len(ld.rungs)
	lr := &ladderResult{rungs: ld.rungs, usOp: make([][]float64, n), counts: make([]map[string]int64, n),
		alloc: make([]uint64, n), gcs: make([]uint32, n)}
	for _, c := range ld.chunkOps {
		lr.ops += c
	}
	deadline := time.Now().Add(budget)
	turn := 0
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		ts := make([]*target, n)
		for i, r := range ld.rungs {
			t, err := r.build()
			if err == nil {
				err = t.warm()
			}
			if err != nil {
				rep.fail("ladder rung %s: %v", r.layer, err)
				return lr
			}
			ts[i] = t
		}
		c0 := make([]map[string]int64, n)
		for i, t := range ts {
			c0[i] = t.counts()
		}
		runtime.GC()
		total := make([]time.Duration, n)
		var m0, m1 runtime.MemStats
		for k, ops := range ld.chunkOps {
			for j := 0; j < n; j++ {
				i := j
				if turn%2 == 1 {
					i = n - 1 - j
				}
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				err := ts[i].chunk(k)
				dt := time.Since(t0)
				runtime.ReadMemStats(&m1)
				if err != nil {
					rep.fail("ladder rung %s: %v", ld.rungs[i].layer, err)
					return lr
				}
				total[i] += dt
				if pass == 0 {
					lr.alloc[i] += m1.TotalAlloc - m0.TotalAlloc
					lr.gcs[i] += m1.NumGC - m0.NumGC
				}
				if !ld.perPass {
					lr.usOp[i] = append(lr.usOp[i], dt.Seconds()*1e6/float64(ops))
				}
			}
			turn++
		}
		for i, t := range ts {
			if ld.perPass {
				lr.usOp[i] = append(lr.usOp[i], total[i].Seconds()*1e6/float64(lr.ops))
			}
			c := delta(t.counts(), c0[i])
			if pass == 0 {
				lr.counts[i] = c
			} else if !sameCounts(c, lr.counts[i]) {
				rep.fail("broken benchmark: rung %s work counts changed between passes: %v vs %v",
					ld.rungs[i].layer, c, lr.counts[i])
				return lr
			}
		}
		lr.passes++
	}
	return lr
}

// reportLadder turns the ladder into self times and checks that they add up
// to the cost between vanilla and the workload's own configuration (rung
// full).
func reportLadder(rep *report, lr *ladderResult, full string) {
	fmt.Printf("ladder: %d timed ops per rung per pass, %d passes, %d samples\n", lr.ops, lr.passes, len(lr.usOp[0]))
	var sum, tol float64
	inversions := 0
	fi := lr.index(full)
	for i, r := range lr.rungs {
		med := median(lr.usOp[i])
		if i == 0 {
			fmt.Printf("rung %-8s %9.3f us/op\n", r.layer, med)
			continue
		}
		d := make([]float64, len(lr.usOp[i]))
		for k := range d {
			d[k] = lr.usOp[i][k] - lr.usOp[i-1][k]
		}
		q1, self, q3 := quartiles(d)
		spread := q3 - q1
		flag := ""
		if self < -spread {
			inversions++
			flag = "  FLAG inversion: this rung costs less than the rung below it"
		}
		fmt.Printf("rung %-8s %9.3f us/op  self %+8.3f us/op (IQR %.3f)%s\n", r.layer, med, self, spread, flag)
		rep.set(r.layer+".self_us_per_op", self)
		if i <= fi {
			sum += self
			tol += spread
		}
	}
	tot := make([]float64, len(lr.usOp[0]))
	for k := range tot {
		tot[k] = lr.usOp[fi][k] - lr.usOp[0][k]
	}
	fullCost := median(tot)
	gap := sum - fullCost
	fmt.Printf("ablation: vanilla→%s %.3f us/op, sum of self times %.3f us/op, gap %+.3f (tolerance %.3f)\n",
		full, fullCost, sum, gap, tol)
	if gap > tol || gap < -tol {
		fmt.Println("FLAG ablation: self times do not add up to the vanilla-to-full cost within their spread")
	}
	vanilla := median(lr.usOp[0])
	rep.set("ablation.vanilla_us_per_op", vanilla)
	rep.set("ablation.full_us_per_op", fullCost)
	rep.set("ablation.sum_gap_us_per_op", gap)
	rep.set("ablation.inversions", float64(inversions))

	insn := lr.perOp("vanilla", "vm.instructions")
	rep.set("vm.instructions_per_op", insn)
	if insn > 0 {
		rep.set("vm.ns_per_instruction", vanilla*1e3/insn)
	}
	for _, c := range []struct{ metric, name string }{
		{"pmem.loads_per_op", "pmem.load"}, {"pmem.stores_per_op", "pmem.store"},
		{"pmem.persists_per_op", "pmem.persist"}, {"pmem.persisted_words_per_op", "pmem.persisted_words"},
		{"pmem.allocs_per_op", "pmem.alloc"},
	} {
		rep.set(c.metric, lr.perOp("vanilla", c.name))
	}
	rep.set("ckpt.versions_per_op", lr.perOp("obs", "ckpt.versions"))
	rep.set("trace.read_events_per_op", lr.perOp("obs", "trace.read_events"))
	rep.set("prov.records_per_op", lr.perOp("prov", "prov.lineage_records"))
	oi := lr.index("obs")
	rep.set("obs.retained_spans", float64(lr.counts[oi]["obs.retained_spans"]))
	rep.set("trace.retained_events", float64(lr.counts[oi]["trace.retained_events"]))
	rep.set("go.alloc_bytes_per_op", float64(lr.alloc[fi])/float64(lr.ops))
	rep.set("go.gc_cycles", float64(lr.gcs[fi]))
	for i, r := range lr.rungs {
		fmt.Printf("counts %-8s", r.layer)
		for _, k := range sortedKeys(lr.counts[i]) {
			fmt.Printf(" %s=%d", k, lr.counts[i][k])
		}
		fmt.Println()
	}
}

// deploymentCounts reads the work counters of a set of deployments from
// their public accessors, and from their recorders when attached.
func deploymentCounts(ds []*systems.Deployment, recs []*obs.Recorder) map[string]int64 {
	c := map[string]int64{}
	for _, d := range ds {
		st := d.Pool.Stats()
		c["vm.instructions"] += d.M.Steps()
		c["pmem.load"] += int64(st.Loads)
		c["pmem.store"] += int64(st.Stores)
		c["pmem.persist"] += int64(st.Persists)
		c["pmem.persisted_words"] += int64(st.PersistedWords.Words)
		c["pmem.alloc"] += int64(st.Allocs)
		if d.Tr != nil {
			c["trace.retained_events"] += int64(d.Tr.Len())
		}
	}
	for _, r := range recs {
		for _, name := range []string{"ckpt.versions", "trace.read_events", "trace.events", "prov.lineage_records"} {
			c[name] += r.CounterValue(name)
		}
		c["obs.retained_spans"] += int64(len(r.SpanNames()))
	}
	return c
}

// setupCosts times compiling and analyzing the sources the workloads
// deploy: the fleet's KV store and the paper's five systems.
func setupCosts(rep *report) {
	srcs := map[string]string{"kv": fleet.KVSource}
	for _, s := range []*systems.System{systems.Memcached(), systems.Redis(), systems.Pelikan(),
		systems.PMEMKV(), systems.CCEH()} {
		srcs[s.Name] = s.Source
	}
	var comp, anal []float64
	for r := 0; r < 7; r++ {
		var c, a time.Duration
		for _, name := range sortedKeys(srcs) {
			t0 := time.Now()
			mod, err := ir.CompileSource(name, srcs[name])
			c += time.Since(t0)
			if err != nil {
				rep.fail("compile %s: %v", name, err)
				return
			}
			t0 = time.Now()
			analysis.Analyze(mod)
			a += time.Since(t0)
		}
		comp = append(comp, c.Seconds()*1e3)
		anal = append(anal, a.Seconds()*1e3)
	}
	rep.set("setup.compile_ms", median(comp))
	rep.set("setup.analyze_ms", median(anal))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
