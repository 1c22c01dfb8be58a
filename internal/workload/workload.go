// Package workload generates the benchmark workloads of the paper's
// overhead evaluation (§6.7): a YCSB-like keyed operation stream with
// configurable read/write mix and zipfian or uniform key popularity, plus
// the custom pure-insert benchmarks used for PMEMKV, Pelikan, and CCEH.
//
// The generator is deterministic (seeded xorshift PRNG) so overhead
// comparisons between deployments run identical operation streams.
package workload

import (
	"fmt"
	"math"
	"time"

	"arthas/internal/obs"
)

// OpKind is a generated operation type.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpDelete
)

func (k OpKind) String() string {
	return [...]string{"READ", "UPDATE", "INSERT", "DELETE"}[k]
}

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   int64
	Value int64
}

// rng is a small deterministic xorshift64* generator.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// Float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Zipf draws keys with zipfian popularity over [1, n] using the classic
// Gray et al. rejection-inversion-free approximation (precomputed CDF for
// moderate n, which is what the harness uses).
type Zipf struct {
	cdf []float64
	rng *rng
}

// NewZipf builds a zipfian sampler over n keys with exponent theta
// (typical YCSB theta = 0.99).
func NewZipf(n int, theta float64, seed uint64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{cdf: make([]float64, n), rng: newRNG(seed)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += 1 / math.Pow(float64(i), theta) / sum
		z.cdf[i-1] = acc
	}
	return z
}

// Next draws a key in [1, n].
func (z *Zipf) Next() int64 {
	u := z.rng.float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo + 1)
}

// Config describes a YCSB-like workload.
type Config struct {
	Ops      int
	Keys     int
	ReadPct  int // percentage of reads; the rest split into updates/inserts
	Zipfian  bool
	Theta    float64
	Seed     uint64
	DeletePM int // per-mille of operations that are deletes
}

// WorkloadA returns the paper's 50/50 read-write mix (§6.7 "50% writes and
// 50% reads") over nKeys keys.
func WorkloadA(ops, nKeys int, seed uint64) Config {
	return Config{Ops: ops, Keys: nKeys, ReadPct: 50, Zipfian: true, Theta: 0.99, Seed: seed}
}

// InsertOnly returns the custom pure-insert benchmark used for PMEMKV,
// Pelikan, and CCEH.
func InsertOnly(ops int, seed uint64) Config {
	return Config{Ops: ops, Keys: ops, ReadPct: 0, Seed: seed}
}

// Generate materializes the operation stream.
func Generate(cfg Config) []Op {
	if cfg.Keys <= 0 {
		cfg.Keys = 1
	}
	r := newRNG(cfg.Seed)
	var z *Zipf
	if cfg.Zipfian {
		z = NewZipf(cfg.Keys, cfg.Theta, cfg.Seed^0xabcdef)
	}
	nextInsert := int64(cfg.Keys) + 1
	ops := make([]Op, cfg.Ops)
	for i := range ops {
		var key int64
		if cfg.ReadPct == 0 && !cfg.Zipfian {
			// Pure insert benchmark: fresh ascending keys.
			ops[i] = Op{Kind: OpInsert, Key: int64(i + 1), Value: int64(i)}
			continue
		}
		if z != nil {
			key = z.Next()
		} else {
			key = int64(r.next()%uint64(cfg.Keys)) + 1
		}
		roll := int(r.next() % 1000)
		switch {
		case cfg.DeletePM > 0 && roll < cfg.DeletePM:
			ops[i] = Op{Kind: OpDelete, Key: key}
		case roll < cfg.DeletePM+cfg.ReadPct*10:
			ops[i] = Op{Kind: OpRead, Key: key}
		case roll%20 == 0:
			ops[i] = Op{Kind: OpInsert, Key: nextInsert, Value: key}
			nextInsert++
		default:
			ops[i] = Op{Kind: OpUpdate, Key: key, Value: int64(i)}
		}
	}
	return ops
}

// Runner executes generated operations against a target system's typed API.
type Runner struct {
	Read   func(k int64) error
	Update func(k, v int64) error
	Insert func(k, v int64) error
	Delete func(k int64) error
	// Obs, when non-nil, receives per-op latency — "workload.op.us" plus a
	// per-kind "workload.<kind>.us" histogram — and an op counter, so
	// overhead runs get p50/p99 alongside their aggregate throughput. The
	// nil default keeps the hot loop free of timing calls.
	Obs obs.Sink
}

// Run applies every operation, returning the count executed and the first
// error (operations after an error are skipped).
func (r *Runner) Run(ops []Op) (int, error) {
	instrumented := obs.Enabled(r.Obs)
	for i, op := range ops {
		var t0 time.Time
		if instrumented {
			t0 = time.Now()
		}
		var err error
		switch op.Kind {
		case OpRead:
			if r.Read != nil {
				err = r.Read(op.Key)
			}
		case OpUpdate:
			if r.Update != nil {
				err = r.Update(op.Key, op.Value)
			}
		case OpInsert:
			if r.Insert != nil {
				err = r.Insert(op.Key, op.Value)
			}
		case OpDelete:
			if r.Delete != nil {
				err = r.Delete(op.Key)
			}
		}
		if instrumented {
			us := float64(time.Since(t0).Microseconds())
			r.Obs.Observe("workload.op.us", us)
			r.Obs.Observe("workload."+kindName(op.Kind)+".us", us)
			r.Obs.Count("workload.op", 1)
		}
		if err != nil {
			return i, fmt.Errorf("op %d (%v key %d): %w", i, op.Kind, op.Key, err)
		}
	}
	return len(ops), nil
}
