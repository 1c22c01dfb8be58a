// Command perfbench is the repository benchmark: it drives the serving fleet
// and the paper's twelve hard-fault cases through their public functions,
// checks every answer, and prints one JSON result line.
//
//	perfbench --workload kv-hot|kv-wide-repl|mitigate-paper --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that breaks the cost down by layer. See README.md for the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's result. A problem is anything that makes the
// run's numbers untrustworthy: a wrong answer, a lost write, or a work count
// that does not repeat.
type report struct {
	result
	problems []string
}

// set records a declared metric; its unit comes from the declaration.
func (r *report) set(name string, v float64) {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				r.Metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
	}
	r.fail("metric %s is not declared", name)
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with their
// units; the run reports exactly one of the two sets.
var endToEnd, perLayer []metricSpec

// loadSpec reads the declared metrics from BENCHMARK.json, so the file is
// the only list of metric names and units.
func loadSpec(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, metricSpec{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, metricSpec{m.Name, m.Unit})
	}
	if len(endToEnd) == 0 || len(perLayer) == 0 {
		return fmt.Errorf("%s declares no end_to_end or no per_layer metrics", path)
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "kv-hot, kv-wide-repl or mitigate-paper")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark declaration that lists the metrics")
	flag.Parse()
	if err := loadSpec(*specPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	rep := &report{result: result{Metrics: map[string]metric{}}}
	budget := time.Duration(*seconds) * time.Second
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		*workload, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	switch *workload {
	case "kv-hot", "kv-wide-repl":
		sp := specs[*workload]
		if *trace == 1 {
			traceServing(rep, sp, *seed, budget)
		} else {
			runServing(rep, sp, *seed, budget)
		}
	case "mitigate-paper":
		if *trace == 1 {
			traceMitigate(rep, *seed, budget)
		} else {
			runMitigate(rep, *seed, budget)
		}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	declared := endToEnd
	if *trace == 1 {
		declared = perLayer
	}
	for _, m := range declared {
		if _, ok := rep.Metrics[m.name]; !ok && len(rep.problems) == 0 {
			rep.fail("metric %s missing", m.name)
		}
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL", p)
	}
	rep.Correct = len(rep.problems) == 0
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
