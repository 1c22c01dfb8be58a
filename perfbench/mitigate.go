package main

import (
	"fmt"
	"runtime"
	"time"

	"arthas/internal/faults"
	"arthas/internal/obs"
	"arthas/internal/systems"
)

// caseOrder returns the twelve Table-2 cases in a seeded order. The
// cases themselves are the paper's fixed inputs; the seed only permutes the
// order they run in.
func caseOrder(seed uint64) []faults.Builder {
	bs := faults.All()
	r := &rng{s: seed}
	for i := len(bs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		bs[i], bs[j] = bs[j], bs[i]
	}
	return bs
}

// caseCounts are a case's outcome figures that must repeat exactly from
// run to run; a mismatch means the benchmark is broken, not noisy.
type caseCounts struct {
	attempts, reverted int
	lossPct            float64
}

// caseRuns collects one case's repeated RunArthas calls.
type caseRuns struct {
	wall, mitigate []float64 // seconds
	counts         caseCounts
}

// longCase is the wall time above which a case runs only in the first
// three rounds: f1 and f9 spend seconds in steady VM interpretation, and
// rerunning them every round would leave the other cases, whose mitigation
// times vary far more, too few samples.
const longCase = time.Second

// caseOpts are the deployment options RunArthas builds a case with.
func caseOpts() systems.DeployOpts {
	return systems.DeployOpts{Checkpoint: true, Trace: true, Obs: obs.NewRecorder()}
}

// setupCases times Builder.New of every case with the deployment options
// RunArthas uses.
func setupCases(bs []faults.Builder) ([]*faults.Case, time.Duration, error) {
	cases := make([]*faults.Case, len(bs))
	t0 := time.Now()
	for i, b := range bs {
		c, err := b.New(caseOpts())
		if err != nil {
			return nil, 0, fmt.Errorf("%s: build: %w", b.ID, err)
		}
		cases[i] = c
	}
	return cases, time.Since(t0), nil
}

// preTrigger returns how many workload ops RunArthas runs on each case
// before the bug fires.
func preTrigger(bs []faults.Builder) []int {
	pre := make([]int, len(bs))
	for i, b := range bs {
		cfg := faults.RunConfig{}.WithDefaultsExported(b.Meta)
		pre[i] = int(float64(cfg.WorkloadOps) * cfg.TriggerFrac)
	}
	return pre
}

// footprintMB runs every case's pre-trigger workload, untimed, and returns
// the live heap in MB while all twelve deployments are still held: their
// pools, checkpoint logs, traces and recorders at the point the bug fires.
func footprintMB(cases []*faults.Case, pre []int) float64 {
	for i, c := range cases {
		c.Workload(pre[i], nil)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(cases)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mitigated reports why an outcome does not show a confirmed hard fault
// that the reactor mitigated and the Table 4 battery accepted, or "" when
// it does. A case whose trigger or detection stops firing comes back
// Recovered with nothing done, and must not pass as a fast mitigation.
func mitigated(b faults.Builder, out *faults.Outcome) string {
	switch {
	case !out.HardFault:
		return "no hard fault confirmed"
	case out.Attempts < 1:
		return "no mitigation attempt"
	case !b.IsLeak && out.Report == nil:
		return "no reactor report"
	case !out.Recovered:
		return "not recovered"
	case out.Consistent != nil:
		return fmt.Sprintf("inconsistent after recovery: %v", out.Consistent)
	}
	return ""
}

// runMitigate is the mitigate-paper end-to-end measurement. Each round
// times the set-up, measures the built cases' footprint, then runs the
// cases through RunArthas at the default reactor configuration, each on a
// freshly collected heap so the seeded order does not decide which case
// pays for the garbage of the one before.
// Rounds repeat until the budget is spent; every figure rests on each
// case's median over its runs.
func runMitigate(rep *report, seed uint64, budget time.Duration) {
	bs := caseOrder(seed)
	pre := preTrigger(bs)
	order := ""
	for _, b := range bs {
		order += " " + b.ID
	}
	fmt.Printf("# mitigate-paper: %d cases, default reactor (1 worker), order:%s\n", len(bs), order)
	runs := make([]caseRuns, len(bs))
	var setups, heaps []float64
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		runtime.GC()
		cases, setup, err := setupCases(bs)
		if err != nil {
			rep.fail("setup: %v", err)
			return
		}
		setups = append(setups, setup.Seconds())
		heaps = append(heaps, footprintMB(cases, pre))
		fmt.Printf("round %d: setup %.4fs, heap %.2f MB, case wall/mitigation ms:", round, setup.Seconds(), heaps[round])
		for i, b := range bs {
			cr := &runs[i]
			if round >= 3 && cr.wall[0] > longCase.Seconds() {
				continue
			}
			runtime.GC()
			t0 := time.Now()
			out, err := faults.RunArthas(b, faults.RunConfig{})
			wall := time.Since(t0)
			if err != nil {
				rep.fail("%s: %v", b.ID, err)
				return
			}
			rep.Attempted++
			if why := mitigated(b, out); why != "" {
				rep.Failed++
				rep.fail("round %d %s: %s", round, b.ID, why)
			}
			c := caseCounts{attempts: out.Attempts, reverted: out.RevertedItems, lossPct: out.DataLossPct}
			if len(cr.wall) == 0 {
				cr.counts = c
			} else if c != cr.counts {
				rep.fail("round %d %s: broken benchmark: outcome counts %+v differ from the first run's %+v",
					round, b.ID, c, cr.counts)
			}
			cr.wall = append(cr.wall, wall.Seconds())
			cr.mitigate = append(cr.mitigate, out.MitigationTime.Seconds())
			fmt.Printf(" %s %.0f/%.1f", b.ID, wall.Seconds()*1e3, out.MitigationTime.Seconds()*1e3)
		}
		fmt.Println()
		if len(rep.problems) > 0 {
			return
		}
	}

	var suite, mitigate, loss float64
	mitUs := make([]float64, len(bs))
	mitNs := make([]int64, len(bs))
	for i, b := range bs {
		cr := runs[i]
		w, m := median(cr.wall), median(cr.mitigate)
		suite += w
		mitigate += m
		loss += cr.counts.lossPct / float64(len(bs))
		mitUs[i] = m * 1e6
		mitNs[i] = int64(m * 1e9)
		fmt.Printf("case %-3s runs=%d attempts=%d reverted=%d data_loss=%.4f%% wall=%.1fms mitigation=%.2fms\n",
			b.ID, len(cr.wall), cr.counts.attempts, cr.counts.reverted, cr.counts.lossPct, w*1e3, m*1e3)
	}
	fmt.Printf("diag suite_s=%.6f mitigate_s=%.6f data_loss_pct=%.6f error_frac=%g rounds=%d\n",
		suite, mitigate, loss, float64(rep.Failed)/float64(rep.Attempted), len(setups))
	rep.set("setup_s", median(setups))
	rep.set("ops_per_s", float64(len(bs))/suite)
	// Percentiles over the twelve cases' median mitigation times; p90 by
	// nearest rank is the second slowest case.
	rep.set("p50_us", median(mitUs))
	rep.set("p90_us", pctl(mitNs, 0.90))
	rep.set("heap_mb", median(heaps))
}
