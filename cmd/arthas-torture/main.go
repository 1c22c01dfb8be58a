// Command arthas-torture sweeps every crash point of a PML workload: it
// enumerates the workload's durability events (persists, transaction-commit
// ranges, allocator/root metadata updates), injects a crash at each one —
// including torn multi-word flushes — and drives the full recovery path
// (image save + reopen, open-time allocator recovery, checkpoint-log and
// flight-recorder parsing, the program's recovery function, and reactor
// mitigation for anything that still fails), checking invariants after
// every step. Failing schedules are shrunk to minimal replayable seeds.
//
// Usage:
//
//	arthas-torture [-media [-imagedir DIR] | -repl] [-opt]
//	               [-seed N] [-points N] [-workers N] [-depth N]
//	               [-recover FN] [-probe "fn args"] [-torn=false]
//	               [-o report.json] file.pml "init_; put 1 2; get 1"
//	arthas-torture -replay seed.json [-o result.json] file.pml
//
// -media and -repl swap the fault model; everything else is the same
// engine (docs/TORTURE.md, "Engine"): the same event enumeration, seeded
// sampling to -points, trial driver, worker pool and report path. Every
// sweep writes one JSON report that is byte-identical for a given -seed,
// across runs and across -workers values, prints its outcome counts to
// stderr, and exits nonzero when any trial ends in an invariant violation.
//
// -media corrupts the durable image at each durability event instead of
// crashing there (bit flips, stuck words, stray writes, block poison —
// docs/MEDIA_FAULTS.md) and verifies the scrubber heals it through both
// the in-process scrub-then-retry path and the image reopen path.
// -imagedir additionally saves each trial's still-corrupt image for
// offline tooling (arthas-inspect scrub) and the CI media job.
//
// -repl runs the workload on a primary streaming its checkpoint log to a
// standby replica (docs/REPLICATION.md) and kills the primary at every
// durability event (torn tails included), cuts the stream mid-record at
// every shipped sequence number, and kills the replica at every applied
// one — each trial must converge back to word-identical primary and
// replica durable images with zero residual lag.
//
// -opt first proves durability equivalence — every enumerated crash point
// of the flush/fence-optimized build must recover to the identical durable
// image under both the optimized and unoptimized stacks (exit 1 and an
// arthas-equiv/v1 report on any mismatch) — then runs the sweep on the
// optimized program.
//
// -replay runs a single saved seed (the testdata/torture format) instead
// of a sweep — the regression path for shrunk crash schedules.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"arthas/internal/torture"
)

func main() {
	seed := flag.Int64("seed", 1, "PRNG seed for schedule sampling")
	points := flag.Int("points", 0, "max crash schedules to run (0 = all enumerated points)")
	workers := flag.Int("workers", 1, "parallel trials (report is identical at any value)")
	depth := flag.Int("depth", 1, "crashes per schedule (2 adds crash-during-recovery-rerun schedules)")
	torn := flag.Bool("torn", true, "include torn variants of multi-word durability events")
	recoverFn := flag.String("recover", "", "recovery function run after each reopen")
	probe := flag.String("probe", "", "single call checked (and used as the mitigation re-execution script) after recovery")
	replay := flag.String("replay", "", "replay one saved seed JSON instead of sweeping")
	media := flag.Bool("media", false, "sweep media faults instead of crash points")
	replMode := flag.Bool("repl", false, "sweep replication failures (primary crash, stream cut, replica kill) instead of crash points")
	imageDir := flag.String("imagedir", "", "with -media: save each trial's corrupt image here")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	optimize := flag.Bool("opt", false, "run the flush/fence-elimination pass on the program, prove per-crash-point recovery equivalence against the unoptimized build, then sweep the optimized program")
	flag.Parse()

	if *replay != "" {
		if flag.NArg() != 1 {
			usage()
		}
		os.Exit(runReplay(flag.Arg(0), *replay, *out))
	}
	if flag.NArg() != 2 {
		usage()
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cfg := torture.Config{
		Name:      flag.Arg(0),
		Source:    string(src),
		Script:    flag.Arg(1),
		RecoverFn: *recoverFn,
		Probe:     *probe,
		Seed:      *seed,
		Points:    *points,
		Workers:   *workers,
		Depth:     *depth,
		Torn:      *torn,
		Optimize:  *optimize,
	}
	if *optimize {
		eq, err := torture.RunEquivalence(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%s: equivalence: %d trials, %d matched, %d skipped, final %v; %s\n",
			flag.Arg(0), eq.Trials, eq.Matched, eq.Skipped, eq.FinalMatch, eq.OptStats)
		if !eq.OK() {
			js, jerr := eq.JSON()
			if jerr != nil {
				fatal(jerr)
			}
			emit(js, *out)
			fmt.Fprintln(os.Stderr, "durability equivalence VIOLATED; optimized sweep not run")
			os.Exit(1)
		}
	}

	sweep := func() (report, error) { return torture.Run(cfg) }
	switch {
	case *media:
		sweep = func() (report, error) { return torture.RunMedia(cfg, *imageDir) }
	case *replMode:
		sweep = func() (report, error) { return torture.RunRepl(cfg) }
	}
	rep, err := sweep()
	if err != nil {
		fatal(err)
	}
	js, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	emit(js, *out)
	// Every sweep report carries the same counts; the summary reads them
	// back from the JSON it just wrote.
	var sum struct{ Events, Trials, Clean, Healed, Violated int }
	if err := json.Unmarshal(js, &sum); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d events, %d trials: %d clean, %d healed, %d violated\n",
		flag.Arg(0), sum.Events, sum.Trials, sum.Clean, sum.Healed, sum.Violated)
	if sum.Violated > 0 {
		os.Exit(1)
	}
}

// report is what every sweep returns.
type report interface{ JSON() ([]byte, error) }

func runReplay(pmlPath, seedPath, out string) int {
	src, err := os.ReadFile(pmlPath)
	if err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(seedPath)
	if err != nil {
		fatal(err)
	}
	var seed torture.Seed
	if err := json.Unmarshal(data, &seed); err != nil {
		fatal(fmt.Errorf("%s: %w", seedPath, err))
	}
	res, err := torture.Replay(string(src), seed)
	if err != nil {
		fatal(err)
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	emit(js, out)
	fmt.Fprintf(os.Stderr, "%s: %s\n", seedPath, res.Outcome)
	if res.Outcome == "violated" {
		return 1
	}
	return 0
}

func emit(js []byte, out string) {
	js = append(js, '\n')
	if out == "" {
		os.Stdout.Write(js)
		return
	}
	if err := os.WriteFile(out, js, 0o644); err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: arthas-torture [-media [-imagedir DIR] | -repl] [-opt] [-seed N] [-points N] [-workers N] [-depth N] [-recover FN] [-probe "fn args"] [-torn=false] [-o report.json] file.pml "init_; put 1 2; get 1"
       arthas-torture -replay seed.json [-o result.json] file.pml`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
