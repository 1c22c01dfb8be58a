package torture

import (
	"bytes"
	"fmt"
	"slices"

	"arthas"
	"arthas/internal/pmem"
)

// trial is one schedule in flight on a completely fresh deployment; it
// shares nothing with other trials, so any number run concurrently with
// identical results. run drives the workload the same way under every
// fault model, mirroring how an operator lives through the fault: a trap
// with no crash pending goes through the full detector → reactor healing
// flow; an injected power failure discards volatile state, and the durable
// image is serialized and reopened through the REAL open path (open-time
// allocator recovery, strict integrity check, checkpoint-log and flight
// parsing), recovered, and the interrupted call re-issued (at-least-once
// semantics). A failure the reactor cannot heal is an invariant violation,
// as is any malformed image, pool, or log state. The fault model plugs in
// through arm, afterCall and dirty, then judges the surviving instance
// with its own oracle.
type trial struct {
	cfg   Config
	acfg  arthas.Config // for the deployment and every reopen
	calls []Call
	probe *Call
	// arm returns the crash hook for workload segment si (power failures
	// separate segments); nil runs the segment uninjected.
	arm func(si int) pmem.CrashFunc
	// afterCall, when set, runs after each completed workload call; a
	// non-empty violation ends the trial.
	afterCall func() string
	// dirty, when set, runs after each reactor heal and crash reopen: both
	// change durable state behind the pool hooks' back.
	dirty func()

	inst       *arthas.Instance
	violations []string
	healed     bool
	attempts   int // reactor re-executions
	scrubs     int // in-process scrub repairs
}

// deploy builds the trial's fresh instance; false ends the trial.
func (t *trial) deploy() bool {
	inst, err := arthas.New(t.cfg.Name, t.cfg.Source, t.acfg)
	if err != nil {
		t.violations = append(t.violations, "deploy-failed: "+err.Error())
		return false
	}
	t.inst = inst
	return true
}

// run issues the workload, surviving every injected power failure, then
// the optional probe. False means a violation already ended the trial.
func (t *trial) run() bool {
	ci := 0 // next workload call (not advanced past an interrupted call)
	for si := 0; ; si++ {
		t.inst.Pool.SetCrashFunc(t.arm(si))
		crashed := false
		for ci < len(t.calls) {
			c := t.calls[ci]
			_, trap := t.inst.Call(c.Fn, c.Args...)
			if t.inst.Pool.CrashLatched() {
				crashed = true
				break
			}
			// A failure with no crash pending: the mitigation's re-execution
			// script restarts, recovers, and re-issues this very call, so on
			// success we advance past it.
			if trap != nil && !t.mitigate(trap, &c) {
				return false
			}
			ci++
			if t.afterCall != nil {
				if v := t.afterCall(); v != "" {
					t.violations = append(t.violations, v)
					return false
				}
			}
		}
		if !crashed {
			break
		}

		// Power failure: volatile state dies, the (possibly torn) durable
		// image is what the next process sees.
		powerFail(t.inst)
		next := t.reopen()
		if next == nil {
			return false
		}
		t.inst = next
		if t.dirty != nil {
			t.dirty()
		}
		if trap := t.inst.Restart(); trap != nil && !t.mitigate(trap, t.probe) {
			return false
		}
		t.check(t.inst)
		if len(t.violations) > 0 {
			return false
		}
	}
	if t.probe != nil {
		if _, trap := t.inst.Call(t.probe.Fn, t.probe.Args...); trap != nil {
			return t.mitigate(trap, t.probe)
		}
	}
	return true
}

// mitigate heals a trap on the live instance and accounts for it; false
// (with the violation recorded) when the reactor could not.
func (t *trial) mitigate(trap *arthas.Trap, call *Call) bool {
	ok, rep, v := heal(t.inst, trap, call)
	if rep != nil {
		t.attempts += rep.Attempts
		t.scrubs += rep.ScrubRepairs
	}
	if !ok {
		t.violations = append(t.violations, v)
		return false
	}
	t.healed = true
	if t.dirty != nil {
		t.dirty()
	}
	return true
}

// reopen serializes the live instance's durable state and reopens it
// through the real recovery path. A crash image that cannot be reopened is
// always a violation: power loss at a durability boundary must never leave
// the system unreadable. Returns nil after recording the violation.
func (t *trial) reopen() *arthas.Instance {
	var buf bytes.Buffer
	if err := t.inst.SaveImage(&buf); err != nil {
		t.violations = append(t.violations, "save-failed: "+err.Error())
		return nil
	}
	next, err := arthas.OpenImage(t.inst.Name, t.cfg.Source, t.acfg, &buf)
	if err != nil {
		t.violations = append(t.violations, "reopen-failed: "+err.Error())
		return nil
	}
	return next
}

// check records violations of the post-recovery invariants on inst.
func (t *trial) check(inst *arthas.Instance) {
	if rep := inst.Pool.CheckIntegrity(); !rep.OK() {
		t.violations = append(t.violations, "pool-integrity: "+rep.String())
	}
	if rep := inst.Log.Validate(); !rep.OK() {
		t.violations = append(t.violations, "log-invalid: "+rep.String())
	}
	if t.cfg.FlightEvents > 0 && inst.Flight == nil {
		t.violations = append(t.violations, "flight-lost: recorder missing after reopen")
	}
}

// finish returns the trial's outcome — "violated" on any violation,
// "healed" when the reactor or a scrubber had to step in, else "clean" —
// and its violations, deduplicated and sorted.
func (t *trial) finish() (string, []string) {
	if len(t.violations) > 0 {
		vs := slices.Clone(t.violations)
		slices.Sort(vs)
		return "violated", slices.Compact(vs)
	}
	if t.healed {
		return "healed", nil
	}
	return "clean", nil
}

// runTrial runs one crash schedule: the workload survives each ordered
// power failure, and the final state must survive one more save/reopen
// round trip cleanly.
func runTrial(cfg Config, calls []Call, probe *Call, sched Schedule) TrialResult {
	res := TrialResult{Schedule: sched}
	t := &trial{cfg: cfg, acfg: arthasConfig(cfg), calls: calls, probe: probe}
	t.arm = func(si int) pmem.CrashFunc {
		if si >= len(sched) {
			return nil
		}
		return crashAt(sched[si], func(c string) { res.Crashes = append(res.Crashes, c) })
	}
	if t.deploy() && t.run() {
		if final := t.reopen(); final != nil {
			t.check(final)
		}
	}
	res.Outcome, res.Violations = t.finish()
	res.MitigationAttempts = t.attempts
	return res
}

// powerFail completes an injected crash: volatile state dies and the pool
// accepts durability again for whoever serializes what survived.
func powerFail(inst *arthas.Instance) {
	inst.Pool.SetCrashFunc(nil)
	inst.Pool.Crash()
	inst.Pool.ResetCrashLatch()
}

// heal drives the detector → reactor flow for a trap. With a call, the
// mitigation re-execution script is "restart, recover, re-issue the call";
// without one it is recovery alone. Returns ok=false with a violation
// string when the reactor cannot produce a healthy system; rep is nil only
// when the reactor refused to run at all.
func heal(inst *arthas.Instance, trap *arthas.Trap, call *Call) (bool, *arthas.Report, string) {
	inst.Observe(trap)
	var rep *arthas.Report
	var err error
	if call != nil {
		rep, err = inst.MitigateCall(call.Fn, call.Args...)
	} else {
		rep, err = inst.Mitigate(func() *arthas.Trap { return inst.Restart() })
	}
	if err != nil {
		return false, nil, "mitigation-error: " + err.Error()
	}
	if !rep.Recovered {
		return false, rep, fmt.Sprintf("unhealed: %v after %d attempts (mode %v)",
			trap.Kind, rep.Attempts, rep.ModeUsed)
	}
	return true, rep, ""
}
