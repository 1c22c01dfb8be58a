package torture

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"arthas"
	"arthas/internal/pmem"
)

// The sweep core every fault model shares: parse the workload, enumerate
// its durability events, down-sample the model's schedules, run the trials
// on a bounded worker pool and tally their outcomes. The trial driver in
// trial.go is the other shared half.

// prepare applies cfg's defaults and parses its workload and optional probe.
func prepare(cfg Config) (Config, []Call, *Call, error) {
	cfg = cfg.withDefaults()
	calls, err := ParseScript(cfg.Script)
	if err != nil {
		return cfg, nil, nil, err
	}
	if cfg.Probe == "" {
		return cfg, calls, nil, nil
	}
	pc, err := ParseScript(cfg.Probe)
	if err != nil {
		return cfg, nil, nil, err
	}
	if len(pc) != 1 {
		return cfg, nil, nil, fmt.Errorf("torture: probe must be a single call, got %d", len(pc))
	}
	return cfg, calls, &pc[0], nil
}

// enumerate runs the workload once uninjected under acfg and returns every
// durability event in order — the crash-point universe — together with the
// instance the run left behind.
func enumerate(cfg Config, acfg arthas.Config, calls []Call) ([]EventInfo, *arthas.Instance, error) {
	inst, err := arthas.New(cfg.Name, cfg.Source, acfg)
	if err != nil {
		return nil, nil, err
	}
	var events []EventInfo
	inst.Pool.SetCrashFunc(counting(func(_ int, ev pmem.DurEvent) (int, bool) {
		events = append(events, EventInfo{Kind: ev.Kind.String(), Addr: ev.Addr, Words: ev.Words})
		return ev.Words, false
	}))
	for _, c := range calls {
		if _, trap := inst.Call(c.Fn, c.Args...); trap != nil {
			return nil, nil, fmt.Errorf("workload call %q trapped with no injection: %v", c, trap)
		}
	}
	return events, inst, nil
}

// counting builds a crash hook that numbers one workload segment's
// durability events from 0 and hands each to at, which returns how many of
// the event's words become durable and whether the power fails there.
func counting(at func(i int, ev pmem.DurEvent) (keep int, crash bool)) pmem.CrashFunc {
	n := 0
	return func(ev pmem.DurEvent) (int, bool) {
		i := n
		n++
		return at(i, ev)
	}
}

// crashAt builds the hook that power-fails at spec's event with spec.Keep
// words of it durable, telling fired what it did ("meta@0x100000018+2
// keep=1").
func crashAt(spec CrashSpec, fired func(string)) pmem.CrashFunc {
	return counting(func(i int, ev pmem.DurEvent) (int, bool) {
		if i != spec.Event {
			return ev.Words, false
		}
		keep := spec.Keep
		if keep < 0 || keep > ev.Words {
			keep = ev.Words
		}
		fired(fmt.Sprintf("%s@%#x+%d keep=%d", ev.Kind, ev.Addr, ev.Words, keep))
		return keep, true
	})
}

// sample keeps points of all, picked by rng, in their original order so
// reports stay readable; points <= 0 keeps everything.
func sample[T any](rng *rand.Rand, all []T, points int) []T {
	if points <= 0 || len(all) <= points {
		return all
	}
	idx := rng.Perm(len(all))[:points]
	sort.Ints(idx)
	out := make([]T, 0, points)
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}

// tally counts trial outcomes; every sweep report embeds one.
type tally struct {
	Clean    int `json:"clean"`
	Healed   int `json:"healed"`
	Violated int `json:"violated"`
}

// runTrials runs trials 0..n-1, at most workers at a time, and tallies the
// outcomes they return. Trials share no state and each writes only its own
// result slot, so reports are identical at any worker count.
func runTrials(n, workers int, trial func(i int) string) tally {
	outcomes := make([]string, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			outcomes[i] = trial(i)
		}()
	}
	wg.Wait()
	var t tally
	for _, o := range outcomes {
		switch o {
		case "clean":
			t.Clean++
		case "healed":
			t.Healed++
		default:
			t.Violated++
		}
	}
	return t
}
