package torture

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"arthas"
	"arthas/internal/pmem"
)

// Media-fault torture mode: instead of crashing at durability events, the
// harness corrupts the durable image AT them — bit flips, stuck words, stray
// writes, and whole-block poison landing behind the checksums' back — and
// then verifies the system heals end to end through BOTH repair paths: the
// in-process reactor (trap → detector → scrub-then-retry) while the workload
// keeps running, and the open path (SaveImage → OpenImage scrubs from the
// image's own checkpoint log) afterwards. Like the crash sweep, everything
// is deterministic for a given -seed and byte-identical across -workers.

// MediaSpec orders one injected media fault: after the Event'th durability
// event of the workload, corrupt the word at that event's address plus the
// Word offset with the named fault kind (docs/MEDIA_FAULTS.md taxonomy).
type MediaSpec struct {
	Event int    `json:"event"`
	Kind  string `json:"kind"`
	Word  int    `json:"word,omitempty"`
	Bits  uint64 `json:"bits,omitempty"`
	Value uint64 `json:"value,omitempty"`
	Seed  int64  `json:"seed,omitempty"`

	kind pmem.MediaFaultKind
}

func (s MediaSpec) String() string {
	return fmt.Sprintf("e%d:%s+%d", s.Event, s.Kind, s.Word)
}

// MediaTrialResult is the outcome of one media-fault schedule.
type MediaTrialResult struct {
	Trial int       `json:"trial"`
	Spec  MediaSpec `json:"spec"`
	// Inject describes the fault that actually fired ("stuck-word@0x...+2");
	// empty when the spec's event index exceeded the run's event stream.
	Inject     string   `json:"inject,omitempty"`
	Outcome    string   `json:"outcome"`
	Violations []string `json:"violations,omitempty"`
	// ScrubRepairs totals in-process scrub passes the reactor ran; OpenHealed
	// reports that the final reopen had to scrub the image.
	ScrubRepairs       int  `json:"scrub_repairs,omitempty"`
	OpenHealed         bool `json:"open_healed,omitempty"`
	Quarantined        int  `json:"quarantined,omitempty"`
	MitigationAttempts int  `json:"mitigation_attempts,omitempty"`
}

// MediaReport is the full deterministic output of a media sweep.
type MediaReport struct {
	Program string `json:"program"`
	Script  string `json:"script"`
	Seed    int64  `json:"seed"`
	Events  int    `json:"events"`
	Trials  int    `json:"trials"`
	tally
	Results []MediaTrialResult `json:"results"`
}

// JSON renders the report byte-identically for a given seed.
func (r *MediaReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunMedia executes a media-fault sweep: enumerate durability events with a
// baseline run, derive one fault spec per sampled event (kinds cycled, offsets
// and patterns from the seeded PRNG), and run each as an independent trial.
// When imageDir is non-empty, each trial's post-injection (still corrupt)
// image is saved there as <name>-media-NNN.img for offline tooling
// (arthas-inspect scrub) and the CI media job.
func RunMedia(cfg Config, imageDir string) (*MediaReport, error) {
	cfg, calls, probe, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	events, _, err := enumerate(cfg, arthasConfig(cfg), calls)
	if err != nil {
		return nil, fmt.Errorf("torture: baseline run: %w", err)
	}
	specs := buildMediaSchedules(cfg, events)
	if imageDir != "" {
		if err := os.MkdirAll(imageDir, 0o755); err != nil {
			return nil, fmt.Errorf("torture: image dir: %w", err)
		}
	}
	rep := &MediaReport{
		Program: cfg.Name,
		Script:  cfg.Script,
		Seed:    cfg.Seed,
		Events:  len(events),
		Trials:  len(specs),
		Results: make([]MediaTrialResult, len(specs)),
	}
	rep.tally = runTrials(len(specs), cfg.Workers, func(i int) string {
		rep.Results[i] = runMediaTrial(cfg, calls, probe, specs[i], i, imageDir)
		rep.Results[i].Trial = i
		return rep.Results[i].Outcome
	})
	return rep, nil
}

// buildMediaSchedules derives one fault spec per event, cycling through the
// four fault kinds so every kind exercises many distinct targets, with the
// seeded PRNG choosing word offsets and corruption patterns. The set is then
// sampled down to cfg.Points (order-preserving).
func buildMediaSchedules(cfg Config, events []EventInfo) []MediaSpec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	kinds := []pmem.MediaFaultKind{
		pmem.MediaBitFlip, pmem.MediaStuckWord,
		pmem.MediaStrayWrite, pmem.MediaBlockPoison,
	}
	specs := make([]MediaSpec, 0, len(events))
	for i, ev := range events {
		k := kinds[i%len(kinds)]
		sp := MediaSpec{Event: i, Kind: k.String(), kind: k}
		if ev.Words > 1 {
			sp.Word = rng.Intn(ev.Words)
		}
		switch k {
		case pmem.MediaBitFlip:
			sp.Bits = 1 << uint(rng.Intn(64))
		case pmem.MediaStuckWord:
			sp.Value = rng.Uint64()
		case pmem.MediaBlockPoison:
			sp.Seed = rng.Int63()
		}
		specs = append(specs, sp)
	}
	return sample(rng, specs, cfg.Points)
}

// runMediaTrial runs one media-fault schedule in a fresh deployment. The
// fault is injected between workload calls, right after the spec's event
// fires — modeling media that went bad under a completed write-back. The
// remaining workload may trap media-corrupt (in-process heal via the
// reactor's scrub-then-retry); whatever corruption the workload never
// touched is then healed by the reopen path, and the final state must pass
// every structural and media invariant.
func runMediaTrial(cfg Config, calls []Call, probe *Call, spec MediaSpec, index int, imageDir string) MediaTrialResult {
	res := MediaTrialResult{Spec: spec}
	t := &trial{cfg: cfg, acfg: arthasConfig(cfg), calls: calls, probe: probe}

	// Counting hook: never crashes, only spots the target event and records
	// where its range landed; the fault goes in once that call completes.
	var target uint64
	pending, injected := false, false
	t.arm = func(int) pmem.CrashFunc {
		return counting(func(i int, ev pmem.DurEvent) (int, bool) {
			if i == spec.Event {
				off := 0
				if ev.Words > 0 {
					off = spec.Word % ev.Words
				}
				target = ev.Addr + uint64(off)
				pending = true
			}
			return ev.Words, false
		})
	}
	t.afterCall = func() string {
		if !pending || injected {
			return ""
		}
		r, err := t.inst.Pool.InjectMediaFault(pmem.MediaFault{
			Kind: spec.kind, Addr: target,
			Bits: spec.Bits, Value: spec.Value, Seed: spec.Seed,
		})
		if err != nil {
			return "inject-failed: " + err.Error()
		}
		injected = true
		res.Inject = fmt.Sprintf("%s@%#x+%d", spec.Kind, r.Addr, r.Words)
		if imageDir != "" {
			t.violations = append(t.violations, saveTrialImage(t.inst, imageDir, cfg.Name, index)...)
		}
		return ""
	}

	// The reopen path: whatever corruption the workload never read travels
	// in the image and must be healed (or fenced) by OpenImage's scrubber.
	if t.deploy() && t.run() {
		if final := t.reopen(); final != nil {
			mediaVerdict(t, final, &res)
		}
	}
	res.Outcome, res.Violations = t.finish()
	res.ScrubRepairs, res.MitigationAttempts = t.scrubs, t.attempts
	return res
}

// mediaVerdict judges the reopened final state: the open-time scrub must
// leave a healthy pool, the media and structural invariants must hold, and
// the probe must still answer.
func mediaVerdict(t *trial, final *arthas.Instance, res *MediaTrialResult) {
	if final.LastScrub != nil {
		res.OpenHealed = true
		res.Quarantined = final.LastScrub.Quarantined
		if !final.LastScrub.Healthy() {
			t.violations = append(t.violations, "open-scrub-unhealthy: "+final.LastScrub.String())
		}
		t.healed = true
	}
	if merr := final.Pool.VerifyMedia(); merr != nil {
		t.violations = append(t.violations, "media-unclean: "+merr.Error())
	}
	t.check(final)
	if t.probe != nil && len(t.violations) == 0 {
		if _, trap := final.Call(t.probe.Fn, t.probe.Args...); trap != nil {
			// Reads of quarantined (unreconstructible) data may still trap —
			// that is data loss the log could not prevent, not a violation —
			// but only when something was actually fenced off.
			if res.Quarantined == 0 {
				t.violations = append(t.violations, "probe-after-reopen: "+trap.Error())
			}
		}
	}
}

// saveTrialImage writes the still-corrupt image snapshot for offline repair
// tooling. Write failures are violations: the CI job depends on the corpus.
func saveTrialImage(inst *arthas.Instance, dir, name string, trial int) []string {
	base := strings.TrimSuffix(filepath.Base(name), filepath.Ext(name))
	path := filepath.Join(dir, fmt.Sprintf("%s-media-%03d.img", base, trial))
	f, err := os.Create(path)
	if err != nil {
		return []string{"image-save-failed: " + err.Error()}
	}
	defer f.Close()
	if err := inst.SaveImage(f); err != nil {
		return []string{"image-save-failed: " + err.Error()}
	}
	return nil
}
