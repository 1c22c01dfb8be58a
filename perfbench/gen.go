package main

import (
	"math"
	"sort"
)

// Op kinds the serving workloads issue.
const (
	opGet = iota
	opPut // update of a live key
	opIns // put of a fresh key
	opDel
)

var kindNames = [...]string{"get", "put", "insert", "del"}

// op is one client request. want is the answer a correct fleet gives: the
// stored value for a get, 0 for an update of a live key, and 1 for an
// insert of a fresh key or a delete of a live one.
type op struct {
	kind int
	key  int64
	val  int64
	want int64
}

// rng is splitmix64: the benchmark's own generator, so the inputs depend on
// the seed alone and not on any generator inside the program.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// value draws a stored value: positive and below 2^40, so sums of a shard's
// values never overflow the digest arithmetic.
func (r *rng) value() int64 { return int64(r.next()>>24) + 1 }

// zipf samples ranks 0..n-1 with P(i) proportional to 1/(i+1)^theta by
// inverting the exact CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// spec sizes one serving workload. Keys are partitioned by client (key %
// clients == client), so every key has one sequential history and each
// client can predict every answer from its own model.
type spec struct {
	name     string
	keys     int     // preloaded keys
	zipf     float64 // 0 = uniform key choice
	readPct  int     // the rest of the mix are writes
	churnPct int     // inserts and deletes, each this share of all ops
	replicas bool
	prov     bool
	warmup   int // untimed ops per client before the timed phase
	timed    int // timed ops per client
}

// clientStream is one client's preload and request sequence, with the
// model of live keys and values the requests leave behind.
type clientStream struct {
	preload []op
	ops     []op
	model   map[int64]int64 // live keys after all ops
	deleted []int64         // keys deleted; fresh keys are never reused
}

// genClient builds client c's stream deterministically from seed.
func genClient(sp spec, clients, c int, seed uint64) *clientStream {
	r := &rng{s: seed ^ (uint64(c)+1)*0xd1b54a32d192ed03}
	cs := &clientStream{model: map[int64]int64{}}
	var live []int64 // in a seeded order; zipf ranks index into it
	for k := int64(c); k < int64(sp.keys); k += int64(clients) {
		live = append(live, k)
	}
	for i := len(live) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		live[i], live[j] = live[j], live[i]
	}
	for _, k := range live {
		v := r.value()
		cs.model[k] = v
		cs.preload = append(cs.preload, op{kind: opIns, key: k, val: v, want: 1})
	}
	var z *zipf
	if sp.zipf > 0 {
		z = newZipf(len(live), sp.zipf)
	}
	nextFresh := int64(sp.keys) + int64(c)
	pick := func() int64 {
		if z != nil {
			return live[z.rank(r)]
		}
		return live[r.intn(len(live))]
	}
	total := sp.warmup + sp.timed
	cs.ops = make([]op, 0, total)
	for len(cs.ops) < total {
		p := r.intn(100)
		switch {
		case p < sp.churnPct:
			k := nextFresh
			nextFresh += int64(clients)
			v := r.value()
			live = append(live, k)
			cs.model[k] = v
			cs.ops = append(cs.ops, op{kind: opIns, key: k, val: v, want: 1})
		case p < 2*sp.churnPct && len(live) > 1:
			i := r.intn(len(live))
			k := live[i]
			last := live[len(live)-1]
			live[i] = last
			live = live[:len(live)-1]
			delete(cs.model, k)
			cs.deleted = append(cs.deleted, k)
			cs.ops = append(cs.ops, op{kind: opDel, key: k, want: 1})
		case p < 2*sp.churnPct+sp.readPct:
			k := pick()
			cs.ops = append(cs.ops, op{kind: opGet, key: k, want: cs.model[k]})
		default:
			k := pick()
			v := r.value()
			cs.model[k] = v
			cs.ops = append(cs.ops, op{kind: opPut, key: k, val: v})
		}
	}
	return cs
}

// serialStream interleaves the clients' preloads and requests round-robin:
// the single-client replay the traced run times. Because clients own
// disjoint keys, every answer in it is still the one the model predicts.
func serialStream(streams []*clientStream) (preload, ops []op) {
	for i := 0; ; i++ {
		done := true
		for _, cs := range streams {
			if i < len(cs.preload) {
				preload = append(preload, cs.preload[i])
				done = false
			}
		}
		if done {
			break
		}
	}
	for i := 0; ; i++ {
		done := true
		for _, cs := range streams {
			if i < len(cs.ops) {
				ops = append(ops, cs.ops[i])
				done = false
			}
		}
		if done {
			break
		}
	}
	return preload, ops
}
