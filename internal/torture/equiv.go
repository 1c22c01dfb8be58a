package torture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"arthas"
	"arthas/internal/opt"
)

// Durability-equivalence sweep: the torture-grade proof obligation of the
// optimizer. For every enumerated crash point of the OPTIMIZED program
// (including torn variants when enabled), the schedule runs against the
// optimized build, the power failure latches, and the resulting durable
// image is recovered twice — once by the optimized stack and once by the
// unoptimized stack. The two recovered durable images must be
// word-identical: the optimizer may remove persists, but it must never
// change what any crash can make durable or how recovery repairs it. A
// crash-free full run of both builds must likewise end word-identical.
// Comparison is over pmem.Pool.DurableImage — the crash-preserved payload
// alone, not the serialized pool file, whose stats section counts persist
// traffic and would legitimately differ between the two builds.

// EquivSchemaVersion identifies the equivalence report format.
const EquivSchemaVersion = "arthas-equiv/v1"

// EquivMismatch records one crash point whose recovered states diverged.
type EquivMismatch struct {
	Trial  int    `json:"trial"`
	Event  int    `json:"event"`
	Keep   int    `json:"keep"`
	Detail string `json:"detail"`
}

// EquivReport is the deterministic output of RunEquivalence.
type EquivReport struct {
	Schema  string `json:"schema"`
	Program string `json:"program"`
	Script  string `json:"script"`
	Seed    int64  `json:"seed"`
	// EventsBaseline / EventsOptimized count durability events in one
	// uninjected run of each build: the dynamic persist-traffic reduction.
	EventsBaseline  int `json:"events_baseline"`
	EventsOptimized int `json:"events_optimized"`
	// Trials is the number of crash points swept (on the optimized build);
	// Matched of them recovered byte-identically under both stacks.
	Trials  int `json:"trials"`
	Matched int `json:"matched"`
	// Skipped counts schedules whose event never fired (the optimized run
	// produced fewer events than the schedule indexed).
	Skipped int `json:"skipped"`
	// FinalMatch is the crash-free check: both builds run the workload to
	// completion and the durable pools compare equal.
	FinalMatch bool            `json:"final_match"`
	Mismatches []EquivMismatch `json:"mismatches,omitempty"`
	// OptStats is what the optimizer did to the program under test.
	OptStats *opt.Stats `json:"opt_stats"`
}

// OK reports whether every swept crash point (and the crash-free run)
// recovered identically.
func (r *EquivReport) OK() bool {
	return len(r.Mismatches) == 0 && r.FinalMatch
}

// JSON renders the report byte-identically for a given seed.
func (r *EquivReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunEquivalence sweeps every enumerated crash point of the optimized
// program and proves recovery equivalence against the unoptimized build.
// cfg.Optimize is ignored (both builds always run); cfg.FlightEvents is
// forced to zero so pool images carry no telemetry tail and compare by
// durable content alone.
func RunEquivalence(cfg Config) (*EquivReport, error) {
	cfg, calls, _, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	optCfg, baseCfg := arthasConfig(cfg), arthasConfig(cfg)
	optCfg.FlightEvents, optCfg.Optimize = 0, true
	baseCfg.FlightEvents, baseCfg.Optimize = 0, false

	rep := &EquivReport{
		Schema:  EquivSchemaVersion,
		Program: cfg.Name,
		Script:  cfg.Script,
		Seed:    cfg.Seed,
	}

	// Dynamic event universes for both builds; the runs' end states are
	// the crash-free comparison.
	optEvents, optFinal, err := enumerate(cfg, optCfg, calls)
	if err != nil {
		return nil, fmt.Errorf("torture: optimized baseline run: %w", err)
	}
	baseEvents, baseFinal, err := enumerate(cfg, baseCfg, calls)
	if err != nil {
		return nil, fmt.Errorf("torture: unoptimized baseline run: %w", err)
	}
	rep.OptStats = optFinal.OptStats // what the pass did to this module
	rep.EventsOptimized = len(optEvents)
	rep.EventsBaseline = len(baseEvents)

	// Crash-point schedules over the optimized build's universe. Depth 1:
	// equivalence is a property of one crash image at a time.
	schedCfg := cfg
	schedCfg.Depth = 1
	schedules := buildSchedules(schedCfg, optEvents)
	rep.Trials = len(schedules)

	for i, sched := range schedules {
		spec := sched[0]
		image, fired, err := crashImage(cfg, optCfg, calls, spec)
		if err != nil {
			rep.Mismatches = append(rep.Mismatches, EquivMismatch{
				Trial: i, Event: spec.Event, Keep: spec.Keep,
				Detail: "optimized run: " + err.Error(),
			})
			continue
		}
		if !fired {
			rep.Skipped++
			continue
		}
		optPool, optErr := recoverImage(cfg, optCfg, image)
		basePool, baseErr := recoverImage(cfg, baseCfg, image)
		switch {
		case optErr != nil || baseErr != nil:
			rep.Mismatches = append(rep.Mismatches, EquivMismatch{
				Trial: i, Event: spec.Event, Keep: spec.Keep,
				Detail: fmt.Sprintf("recovery failed (opt: %v, base: %v)", optErr, baseErr),
			})
		case !slices.Equal(optPool, basePool):
			rep.Mismatches = append(rep.Mismatches, EquivMismatch{
				Trial: i, Event: spec.Event, Keep: spec.Keep,
				Detail: fmt.Sprintf("recovered durable images differ at word %d",
					firstDiff(optPool, basePool)),
			})
		default:
			rep.Matched++
		}
	}

	// Crash-free check: both builds ran the workload to completion and the
	// durable images must agree word for word.
	rep.FinalMatch = slices.Equal(optFinal.Pool.DurableImage(), baseFinal.Pool.DurableImage())
	return rep, nil
}

// crashImage runs the optimized build until spec's event fires, latches the
// power failure, and returns the serialized durable image. fired=false means
// the workload completed without reaching the event.
func crashImage(cfg Config, optCfg arthas.Config, calls []Call, spec CrashSpec) ([]byte, bool, error) {
	inst, err := arthas.New(cfg.Name, cfg.Source, optCfg)
	if err != nil {
		return nil, false, err
	}
	inst.Pool.SetCrashFunc(crashAt(spec, func(string) {}))
	for _, c := range calls {
		inst.Call(c.Fn, c.Args...)
		if inst.Pool.CrashLatched() {
			break
		}
	}
	if !inst.Pool.CrashLatched() {
		return nil, false, nil
	}
	powerFail(inst)
	var buf bytes.Buffer
	if err := inst.SaveImage(&buf); err != nil {
		return nil, true, fmt.Errorf("save: %w", err)
	}
	return buf.Bytes(), true, nil
}

// recoverImage reopens one crash image under one build, runs recovery (with
// detector → reactor healing if it traps), and returns the recovered
// durable word image.
func recoverImage(cfg Config, acfg arthas.Config, image []byte) ([]uint64, error) {
	inst, err := arthas.OpenImage(cfg.Name, cfg.Source, acfg, bytes.NewReader(image))
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if trap := inst.Restart(); trap != nil {
		if ok, _, v := heal(inst, trap, nil); !ok {
			return nil, fmt.Errorf("recovery unhealed: %s", v)
		}
	}
	return inst.Pool.DurableImage(), nil
}

// firstDiff returns the first index where a and b disagree (or the shorter
// length when one is a prefix of the other).
func firstDiff(a, b []uint64) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
