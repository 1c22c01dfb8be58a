package torture

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"arthas"
	"arthas/internal/checkpoint"
	"arthas/internal/pmem"
	"arthas/internal/repl"
)

// Replication torture mode: a primary streams its checkpoint log to a
// standby replica (internal/repl) while the harness kills one party at a
// time — the primary at every durability event (torn tails included), the
// stream mid-record at every shipped sequence number, the replica at every
// applied sequence number — and after every such failure the sweep demands
// the protocol converge back to a WORD-IDENTICAL durable image on both
// sides (pmem.Pool.DurableImage). Like the crash and media sweeps, the
// report is a pure function of the seed and byte-identical at any -workers.

// Replication victim kinds.
const (
	ReplVictimPrimary = "primary" // power-fail the primary at a durability event
	ReplVictimStream  = "stream"  // cut the shipped batch mid-record at a target seq
	ReplVictimReplica = "replica" // kill the replica applying a target seq
)

// ReplSpec orders one replication failure.
type ReplSpec struct {
	Victim string `json:"victim"`
	// Event and Keep drive primary crashes: power-fail at the Event'th
	// durability event keeping Keep words of it durable (-1 = all, the
	// untorn variant).
	Event int `json:"event,omitempty"`
	Keep  int `json:"keep,omitempty"`
	// Seq targets stream cuts and replica kills at one stream record.
	Seq uint64 `json:"seq,omitempty"`
	// Cut picks where inside the target record the stream tears (bytes,
	// reduced mod the record length so the tear is always mid-record).
	Cut int `json:"cut,omitempty"`
}

func (s ReplSpec) String() string {
	switch s.Victim {
	case ReplVictimPrimary:
		return fmt.Sprintf("primary@e%d keep=%d", s.Event, s.Keep)
	case ReplVictimStream:
		return fmt.Sprintf("stream@seq%d cut=%d", s.Seq, s.Cut)
	default:
		return fmt.Sprintf("replica@seq%d", s.Seq)
	}
}

// ReplTrialResult is the outcome of one replication-failure schedule.
type ReplTrialResult struct {
	Trial int      `json:"trial"`
	Spec  ReplSpec `json:"spec"`
	// Fired reports whether the ordered failure actually hit (an event or
	// seq past the run's stream simply never fires).
	Fired bool `json:"fired"`
	// Crashes describes primary power failures that fired ("tx@0x...+3
	// keep=1").
	Crashes []string `json:"crashes,omitempty"`
	// Session counters at the end of the trial.
	Truncations        uint64   `json:"truncations,omitempty"`
	Drops              uint64   `json:"drops,omitempty"`
	Resyncs            uint64   `json:"resyncs,omitempty"`
	Records            uint64   `json:"records,omitempty"`
	MitigationAttempts int      `json:"mitigation_attempts,omitempty"`
	Outcome            string   `json:"outcome"`
	Violations         []string `json:"violations,omitempty"`
}

// ReplReport is the full deterministic output of a replication sweep.
type ReplReport struct {
	Program string `json:"program"`
	Script  string `json:"script"`
	Seed    int64  `json:"seed"`
	// Events is the durability-event count of the fault-free workload;
	// Records the stream records one fault-free replication run ships.
	Events  int    `json:"events"`
	Records uint64 `json:"records"`
	Trials  int    `json:"trials"`
	tally
	Results []ReplTrialResult `json:"results"`
}

// JSON renders the report byte-identically for a given seed.
func (r *ReplReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunRepl executes a replication sweep: enumerate the workload's durability
// events and (via a fault-free baseline replication run) its stream
// records, derive one failure spec per event for each victim kind, and run
// each as an independent trial asserting word-identical convergence.
func RunRepl(cfg Config) (*ReplReport, error) {
	cfg, calls, probe, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	events, _, err := enumerate(cfg, arthasConfig(cfg), calls)
	if err != nil {
		return nil, fmt.Errorf("torture: baseline run: %w", err)
	}
	records, err := baselineRecords(cfg, calls)
	if err != nil {
		return nil, fmt.Errorf("torture: baseline replication: %w", err)
	}
	specs := buildReplSchedules(cfg, events, records)
	rep := &ReplReport{
		Program: cfg.Name,
		Script:  cfg.Script,
		Seed:    cfg.Seed,
		Events:  len(events),
		Records: records,
		Trials:  len(specs),
		Results: make([]ReplTrialResult, len(specs)),
	}
	rep.tally = runTrials(len(specs), cfg.Workers, func(i int) string {
		rep.Results[i] = runReplTrial(cfg, calls, probe, specs[i])
		rep.Results[i].Trial = i
		return rep.Results[i].Outcome
	})
	return rep, nil
}

// baselineRecords runs the workload once under a fault-free replication rig
// and returns the stream record count — the seq universe stream/replica
// victims enumerate. It also sanity-checks that fault-free replication
// converges word-identically; a broken protocol fails fast here instead of
// poisoning every trial.
func baselineRecords(cfg Config, calls []Call) (uint64, error) {
	t, sess := replTrial(cfg, calls, nil)
	if sess != nil && t.run() {
		t.violations = replIdentity(t.inst, sess)
	}
	if len(t.violations) > 0 {
		return 0, fmt.Errorf("fault-free replication diverged: %s", strings.Join(t.violations, "; "))
	}
	return sess.Status().Seq, nil
}

// buildReplSchedules derives the victim universe: every durability event as
// a primary crash (torn variants when cfg.Torn and the event spans words),
// every stream record as a mid-record cut, every stream record as a replica
// kill — then samples down to cfg.Points (order-preserving).
func buildReplSchedules(cfg Config, events []EventInfo, records uint64) []ReplSpec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var specs []ReplSpec
	for i, ev := range events {
		specs = append(specs, ReplSpec{Victim: ReplVictimPrimary, Event: i, Keep: -1})
		if cfg.Torn && ev.Words > 1 {
			specs = append(specs, ReplSpec{
				Victim: ReplVictimPrimary, Event: i, Keep: rng.Intn(ev.Words),
			})
		}
	}
	for seq := uint64(1); seq <= records; seq++ {
		specs = append(specs, ReplSpec{Victim: ReplVictimStream, Seq: seq, Cut: 1 + rng.Intn(62)})
	}
	for seq := uint64(1); seq <= records; seq++ {
		specs = append(specs, ReplSpec{Victim: ReplVictimReplica, Seq: seq})
	}
	return sample(rng, specs, cfg.Points)
}

// replTrial deploys a primary whose checkpoint log streams to a standby
// replica. The session ships after every workload call (the tightest lag
// bound), is marked dirty whenever durable state changed behind the
// stream's back — mitigation reverts raw pool words, and a torn crash
// throws away writes the stream already recorded — and always snapshots
// the trial's live instance, across crash reopens. sess is nil when the
// rig could not be deployed (the violation is recorded).
func replTrial(cfg Config, calls []Call, probe *Call) (*trial, *repl.Session) {
	sh := repl.NewShipper()
	t := &trial{cfg: cfg, acfg: arthasConfig(cfg), calls: calls, probe: probe}
	t.acfg.WrapHooks = sh.WrapHooks
	t.arm = func(int) pmem.CrashFunc { return nil }
	if !t.deploy() {
		return t, nil
	}
	sess := repl.NewSession(sh, uint64(cfg.Seed)|1, func() (*pmem.Pool, *checkpoint.Log) {
		return t.inst.Pool, t.inst.Log
	})
	if err := sess.Ship(); err != nil {
		t.violations = append(t.violations, "deploy-failed: "+err.Error())
		return t, nil
	}
	t.dirty = sess.MarkDirty
	t.afterCall = func() string {
		if err := sess.Ship(); err != nil {
			return "ship-failed: " + err.Error()
		}
		return ""
	}
	return t, sess
}

// replIdentity ships any residue and compares the primary's and replica's
// durable images word by word — the sweep's convergence oracle.
func replIdentity(primary *arthas.Instance, sess *repl.Session) []string {
	if err := sess.Ship(); err != nil {
		return []string{"final-ship-failed: " + err.Error()}
	}
	if lag := sess.Lag(); lag != 0 {
		return []string{fmt.Sprintf("residual-lag: %d records unacked after final ship", lag)}
	}
	prim := primary.Pool.DurableImage()
	rep := sess.ReplicaImage()
	if rep == nil {
		return []string{"no-replica: session lost its replica"}
	}
	if len(prim) != len(rep) {
		return []string{fmt.Sprintf("image-size-mismatch: %d vs %d words", len(prim), len(rep))}
	}
	for i := range prim {
		if prim[i] != rep[i] {
			return []string{fmt.Sprintf("word-divergence: addr %#x primary=%#x replica=%#x",
				i, prim[i], rep[i])}
		}
	}
	return nil
}

// runReplTrial runs one replication-failure schedule in a fresh rig: the
// ordered failure fires once, and the trial ends with the identity oracle —
// primary and replica durable images word-identical, zero residual lag —
// plus proof that the session noticed the failure it was dealt.
func runReplTrial(cfg Config, calls []Call, probe *Call, spec ReplSpec) ReplTrialResult {
	res := ReplTrialResult{Spec: spec}
	t, sess := replTrial(cfg, calls, probe)
	if sess != nil {
		switch spec.Victim {
		case ReplVictimPrimary:
			t.arm = func(si int) pmem.CrashFunc {
				if si > 0 {
					return nil
				}
				return crashAt(CrashSpec{Event: spec.Event, Keep: spec.Keep}, func(c string) {
					res.Crashes = append(res.Crashes, c)
					res.Fired = true
				})
			}
		case ReplVictimStream:
			// Tear the wire batch mid-record at the target seq, once. The
			// session must keep the complete prefix, count a truncation, and
			// re-ship the tail.
			sess.LinkFault = func(b []byte) []byte {
				if res.Fired {
					return b
				}
				ops, err := checkpoint.DecodeStream(b)
				if err != nil {
					return b
				}
				off := 0
				for _, op := range ops {
					l := op.EncodedLen()
					if op.Seq == spec.Seq {
						cut := spec.Cut % (l - 1)
						if cut == 0 {
							cut = 1
						}
						res.Fired = true
						return b[:off+cut]
					}
					off += l
				}
				return b
			}
		case ReplVictimReplica:
			// Kill the replica as it applies the target seq, once. The
			// session must drop it, back off, and resync from a fresh
			// snapshot.
			sess.ReplicaFault = func(seq uint64) bool {
				if !res.Fired && seq == spec.Seq {
					res.Fired = true
					return true
				}
				return false
			}
		}
		if t.run() {
			t.violations = append(t.violations, replIdentity(t.inst, sess)...)
			st := sess.Status()
			if spec.Victim == ReplVictimStream && res.Fired && st.Truncations == 0 {
				t.violations = append(t.violations, "cut-unnoticed: stream tear produced no truncation")
			}
			if spec.Victim == ReplVictimReplica && res.Fired && st.Drops == 0 {
				t.violations = append(t.violations, "kill-unnoticed: replica death produced no drop")
			}
			t.check(t.inst)
		}
		st := sess.Status()
		res.Truncations, res.Drops, res.Resyncs, res.Records = st.Truncations, st.Drops, st.Resyncs, st.Records
	}
	res.Outcome, res.Violations = t.finish()
	res.MitigationAttempts = t.attempts
	return res
}
