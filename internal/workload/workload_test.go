package workload

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(WorkloadA(1000, 100, 7))
	b := Generate(WorkloadA(1000, 100, 7))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Generate(WorkloadA(1000, 100, 8))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestWorkloadAMix(t *testing.T) {
	ops := Generate(WorkloadA(20000, 500, 3))
	reads := 0
	for _, op := range ops {
		if op.Kind == OpRead {
			reads++
		}
	}
	pct := 100 * float64(reads) / float64(len(ops))
	if pct < 44 || pct > 56 {
		t.Fatalf("read pct = %.1f, want ~50", pct)
	}
}

func TestInsertOnly(t *testing.T) {
	ops := Generate(InsertOnly(100, 1))
	for i, op := range ops {
		if op.Kind != OpInsert {
			t.Fatalf("op %d kind = %v", i, op.Kind)
		}
		if op.Key != int64(i+1) {
			t.Fatalf("op %d key = %d, want ascending", i, op.Key)
		}
	}
}

func TestKeysInRange(t *testing.T) {
	cfg := WorkloadA(5000, 200, 11)
	for _, op := range Generate(cfg) {
		if op.Kind == OpInsert {
			continue // fresh keys may exceed the initial space
		}
		if op.Key < 1 || op.Key > int64(cfg.Keys) {
			t.Fatalf("key %d out of [1,%d]", op.Key, cfg.Keys)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 0.99, 42)
	counts := map[int64]int{}
	n := 50000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Zipf 0.99 over 1000 keys: the hottest key draws a few percent of all
	// accesses; the top-10 keys together far exceed a uniform share.
	top10 := 0
	for k := int64(1); k <= 10; k++ {
		top10 += counts[k]
	}
	uniformShare := float64(n) * 10 / 1000
	if float64(top10) < 5*uniformShare {
		t.Fatalf("top-10 share = %d, want heavy skew (uniform would be %.0f)", top10, uniformShare)
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(100, 0, 9)
	counts := map[int64]int{}
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for k := int64(1); k <= 100; k++ {
		share := float64(counts[k]) / float64(n)
		if share < 0.003 || share > 0.03 {
			t.Fatalf("key %d share = %.4f, want ~0.01", k, share)
		}
	}
}

func TestRunnerDispatch(t *testing.T) {
	var reads, updates, inserts, deletes int
	r := &Runner{
		Read:   func(int64) error { reads++; return nil },
		Update: func(int64, int64) error { updates++; return nil },
		Insert: func(int64, int64) error { inserts++; return nil },
		Delete: func(int64) error { deletes++; return nil },
	}
	cfg := WorkloadA(2000, 100, 5)
	cfg.DeletePM = 20
	n, err := r.Run(Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("ran %d", n)
	}
	if reads == 0 || updates == 0 || inserts == 0 || deletes == 0 {
		t.Fatalf("dispatch counts: r=%d u=%d i=%d d=%d", reads, updates, inserts, deletes)
	}
}

func TestRunnerStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	r := &Runner{Insert: func(int64, int64) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	}}
	n, err := r.Run(Generate(InsertOnly(10, 1)))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2 completed", n)
	}
}

// Property: generation is a pure function of its config.
func TestPropGenerationPure(t *testing.T) {
	f := func(seed uint64, opsRaw, keysRaw uint16) bool {
		ops := int(opsRaw%500) + 1
		keys := int(keysRaw%200) + 1
		a := Generate(WorkloadA(ops, keys, seed))
		b := Generate(WorkloadA(ops, keys, seed))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
