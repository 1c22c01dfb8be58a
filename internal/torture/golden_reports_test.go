package torture

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// TestGoldenReports regenerates the bounded sweeps the CI torture,
// optimizer, repl and media jobs run over the fixture workloads and compares
// them byte-for-byte against the checked-in goldens in testdata/<mode>/ —
// pinning each sweep's determinism and verdicts, and every report shape.
// opt is the crash sweep of the optimized build (arthas-torture -opt);
// equiv is the durability-equivalence report that -opt proves first. A
// mismatch means sweep behavior changed: if the change is intentional,
// regenerate with
//
//	go test ./internal/torture -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	type report interface{ JSON() ([]byte, error) }
	modes := map[string]func(Config) (report, error){
		"crash": func(c Config) (report, error) { return Run(c) },
		"opt": func(c Config) (report, error) {
			c.Optimize = true
			return Run(c)
		},
		"equiv": func(c Config) (report, error) {
			c.Optimize = true
			return RunEquivalence(c)
		},
		"repl": func(c Config) (report, error) {
			c.Points = 48
			return RunRepl(c)
		},
		"media": func(c Config) (report, error) {
			c.Points, c.Torn = 24, false
			return RunMedia(c, "")
		},
	}
	fixtures := map[string]struct{ recoverFn, script string }{
		"counter":   {"recover_", "init_; bump; bump; bump"},
		"checksum":  {"", "init_; set 1 5; set 2 7"},
		"linkedset": {"recover_", "init_; insert 5; insert 3; insert 9"},
		"ringlog":   {"recover_", "init_ 4; append_ 1; append_ 2; append_ 3"},
		"native":    {"recover_", "init_; append_ 5; append_ 7; reset_; append_ 2"},
	}
	cases := []struct{ mode, fixture, probe string }{
		{"crash", "counter", ""},
		{"crash", "checksum", "check"},
		{"crash", "linkedset", ""},
		{"crash", "ringlog", ""},
		{"opt", "counter", ""},
		{"opt", "checksum", "check"},
		{"opt", "linkedset", ""},
		{"opt", "ringlog", ""},
		{"opt", "native", ""},
		{"equiv", "counter", ""},
		{"equiv", "checksum", "check"},
		{"equiv", "linkedset", ""},
		{"equiv", "ringlog", ""},
		{"equiv", "native", ""},
		{"repl", "counter", "value"},
		{"repl", "checksum", "check"},
		{"repl", "linkedset", "contains 5"},
		{"media", "counter", "value"},
		{"media", "checksum", "check"},
		{"media", "linkedset", ""},
		{"media", "ringlog", ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.mode+"/"+tc.fixture, func(t *testing.T) {
			t.Parallel()
			fx := fixtures[tc.fixture]
			// The CLI's defaults: -seed 1 -points 60 -torn, named by path.
			rep, err := modes[tc.mode](Config{
				Name:      "testdata/" + tc.fixture + ".pml",
				Source:    progSource(t, tc.fixture),
				Script:    fx.script,
				RecoverFn: fx.recoverFn,
				Probe:     tc.probe,
				Seed:      1,
				Points:    60,
				Torn:      true,
				Workers:   4,
			})
			if err != nil {
				t.Fatal(err)
			}
			js, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			js = append(js, '\n')
			path := filepath.Join("..", "..", "testdata", tc.mode, tc.fixture+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, js, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, golden) {
				t.Fatalf("report diverged from golden testdata/%s/%s.json;\nregenerate if intentional\ngot:\n%s",
					tc.mode, tc.fixture, js)
			}
		})
	}
}
