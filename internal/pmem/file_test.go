package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"arthas/internal/obs"
)

func TestPoolFileRoundTrip(t *testing.T) {
	p := New(512)
	a, _ := p.Alloc(4)
	p.Store(a, 11)
	p.Store(a+1, 22)
	p.Persist(a, 2)
	p.Store(a+2, 33) // NOT persisted: must not travel
	p.SetRoot(0, a)

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPool(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Words() != 512 {
		t.Fatalf("words = %d", q.Words())
	}
	root, _ := q.Root(0)
	if root != a {
		t.Fatalf("root = %#x, want %#x", root, a)
	}
	v0, _ := q.Load(a)
	v1, _ := q.Load(a + 1)
	v2, _ := q.Load(a + 2)
	if v0 != 11 || v1 != 22 {
		t.Fatalf("persisted data lost: %d %d", v0, v1)
	}
	if v2 == 33 {
		t.Fatal("unpersisted store traveled through the pool file")
	}
	// Allocator state travels: the block is still live, new allocations
	// do not overlap it.
	if !q.IsAllocated(a) {
		t.Fatal("allocation lost")
	}
	b, err := q.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if b >= a && b < a+4 {
		t.Fatal("new allocation overlaps reopened block")
	}
}

func TestPoolFileRejectsGarbage(t *testing.T) {
	if _, err := ReadPool(bytes.NewReader([]byte("not a pool file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadPool(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestPoolFileRejectsTruncated(t *testing.T) {
	p := New(256)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	data := buf.Bytes()
	if _, err := ReadPool(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// TestPoolFileOversizedHeaderIsTruncated: a bare header claiming the
// largest accepted pool (1<<32 words, 32 GiB) must fail as truncated
// without allocating for the claim — memory follows the bytes that arrive.
func TestPoolFileOversizedHeaderIsTruncated(t *testing.T) {
	var hdr bytes.Buffer
	for _, v := range []uint64{fileMagic, fileVersion, 1 << 32} {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadPool(&hdr)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedImage) {
		t.Fatalf("got %v, want ErrTruncatedImage", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("reading an empty image allocated %d MiB", grew>>20)
	}
}

func TestPoolFileRejectsCorruptImage(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	// Corrupt the durable allocator header before saving.
	p.WriteDurable(a-1, 0)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	if _, err := ReadPool(&buf); err == nil {
		t.Fatal("corrupt pool image accepted")
	}
}

func TestPoolFileInspectOpensCorruptImage(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	p.WriteDurable(a-1, 0) // corrupt allocator header
	var buf bytes.Buffer
	p.WriteTo(&buf)
	q, err := ReadPoolInspect(&buf)
	if err != nil {
		t.Fatalf("inspect open failed: %v", err)
	}
	if rep := q.CheckIntegrity(); rep.OK() {
		t.Fatal("integrity check missed the corruption")
	}
}

func TestPoolFileRejectsBadMagic(t *testing.T) {
	p := New(256)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[0:], 0xDEADBEEF)
	if _, err := ReadPool(bytes.NewReader(data)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPoolFileRejectsBadVersion(t *testing.T) {
	p := New(256)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[8:], 99)
	if _, err := ReadPool(bytes.NewReader(data)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestPoolFileRejectsTruncatedEverywhere(t *testing.T) {
	p := New(128)
	fl := obs.NewFlight(16)
	fl.Count("pmem.store", 1)
	p.AttachFlight(fl)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Every proper prefix must be rejected: header, durable image, stats
	// section, and flight section truncations alike.
	for cut := 0; cut < len(data); cut += 13 {
		if _, err := ReadPool(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at byte %d accepted (len %d)", cut, len(data))
		}
	}
}

func TestPoolFileTypedErrors(t *testing.T) {
	p := New(128)
	fl := obs.NewFlight(16)
	fl.Count("pmem.store", 1)
	p.AttachFlight(fl)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	poolEnd := 24 + 8*128 // header + durable image

	mutate := func(fn func(d []byte) []byte) []byte {
		d := make([]byte, len(full))
		copy(d, full)
		return fn(d)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrNotPoolFile},
		{"garbage", []byte("garbage garbage garbage"), ErrNotPoolFile},
		{"bad magic", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[0:], 0xBAD)
			return d
		}), ErrNotPoolFile},
		{"future version", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[8:], 99)
			return d
		}), ErrCorruptImage},
		{"implausible size", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16:], 1<<40)
			return d
		}), ErrCorruptImage},
		{"truncated header", full[:17], ErrTruncatedImage},
		{"truncated image", full[:poolEnd/2], ErrTruncatedImage},
		{"truncated stats", full[:poolEnd+4], ErrTruncatedImage},
		{"implausible stats count", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[poolEnd:], 1<<30)
			return d
		}), ErrCorruptImage},
		{"truncated flight length", full[:poolEnd+8*8+4], ErrTruncatedImage},
		{"implausible flight length", mutate(func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[poolEnd+8*8:], 1<<40)
			return d
		}), ErrCorruptImage},
		{"truncated flight section", full[:len(full)-3], ErrTruncatedImage},
		{"undecodable flight section", mutate(func(d []byte) []byte {
			for i := poolEnd + 8*9; i < len(d); i++ {
				d[i] = 0xFF
			}
			return d
		}), ErrCorruptImage},
	}
	for _, tc := range cases {
		_, err := ReadPool(bytes.NewReader(tc.data))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.want)
		}
		// The lenient inspect reader must reject the same structural damage
		// (it only skips the pool-content checks, never container parsing).
		if _, err := ReadPoolInspect(bytes.NewReader(tc.data)); err == nil {
			t.Fatalf("%s: inspect reader accepted structural damage", tc.name)
		}
	}
}

func TestPoolFileStrictOpenRecoversCrashWindows(t *testing.T) {
	// An image saved out of a crash window must open strict (with an
	// open-time recovery report), not be rejected.
	p := New(256)
	a, _ := p.Alloc(4)
	_, _ = p.Alloc(4)
	p.SetCrashFunc(crashOnEvent(DurMeta, 0, 2))
	if err := p.Free(a); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("Free = %v", err)
	}
	p.SetCrashFunc(nil)
	p.Crash()
	p.ResetCrashLatch()

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPool(&buf)
	if err != nil {
		t.Fatalf("strict open rejected a legitimately-crashed image: %v", err)
	}
	rec := q.LastRecovery()
	if rec == nil || rec.Clean() {
		t.Fatal("open-time recovery report missing for a crash-window image")
	}
	if rep := q.CheckIntegrity(); !rep.OK() {
		t.Fatalf("reopened pool inconsistent: %v", rep)
	}
}

func TestPoolFileReadsV1Images(t *testing.T) {
	// A v1 file is exactly header + durable image, no trailing sections.
	p := New(128)
	a, _ := p.Alloc(2)
	p.Store(a, 77)
	p.Persist(a, 1)
	p.SetRoot(3, a)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	v1 := buf.Bytes()[:24+8*128]
	binary.LittleEndian.PutUint64(v1[8:], 1) // rewrite version field

	q, err := ReadPool(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if q.FormatVersion() != 1 {
		t.Fatalf("format version = %d", q.FormatVersion())
	}
	if q.Stats() != (Stats{}) {
		t.Fatalf("v1 image produced stats %+v", q.Stats())
	}
	if v, _ := q.Load(a); v != 77 {
		t.Fatalf("payload = %d", v)
	}
	if root, _ := q.Root(3); root != a {
		t.Fatalf("root = %#x", root)
	}
	if q.Flight() != nil {
		t.Fatal("v1 image produced a flight recorder")
	}
}

func TestPoolFileRoundTripPreservesStatsRootsAndDurability(t *testing.T) {
	p := New(512)
	a, _ := p.Alloc(4)
	p.Store(a, 1)
	p.Store(a+1, 2)
	p.Persist(a, 2)
	p.Load(a)
	p.SetRoot(0, a)
	p.SetRoot(15, a+1)
	b, _ := p.Alloc(3)
	p.Free(b)
	p.Crash()
	p.Store(a+3, 99) // dirty at save time: must NOT travel
	if p.DirtyWords() == 0 {
		t.Fatal("setup: expected dirty words before save")
	}
	want := p.Stats()

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPool(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Stats(); got != want {
		t.Fatalf("stats did not travel: got %+v, want %+v", got, want)
	}
	for _, slot := range []int{0, 15} {
		pr, _ := p.Root(slot)
		qr, _ := q.Root(slot)
		if pr != qr {
			t.Fatalf("root %d: %#x vs %#x", slot, qr, pr)
		}
	}
	// Durable state travels; volatile (dirty) state has crash semantics.
	if v, _ := q.Load(a); v != 1 {
		t.Fatalf("durable word = %d", v)
	}
	if q.DirtyWords() != 0 {
		t.Fatalf("reopened pool has %d dirty words", q.DirtyWords())
	}
	if v, _ := q.Load(a + 3); v == 99 {
		t.Fatal("unpersisted store traveled")
	}
	// Word-for-word: durable image identical.
	for w := uint64(0); w < uint64(q.Words()); w++ {
		pv, _ := p.ReadDurable(Base + w)
		qv, _ := q.ReadDurable(Base + w)
		if pv != qv {
			t.Fatalf("durable word %d differs: %d vs %d", w, qv, pv)
		}
	}
}

func TestPoolFileRoundTripsFlight(t *testing.T) {
	p := New(128)
	fl := obs.NewFlight(32)
	p.AttachFlight(fl)
	p.SetSink(fl) // route pool telemetry into the recorder
	a, _ := p.Alloc(2)
	p.Store(a, 5)
	p.Persist(a, 1)
	p.Crash()

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadPool(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rfl := q.Flight()
	if rfl == nil {
		t.Fatal("flight recorder did not travel")
	}
	a2, b2 := fl.Events(), rfl.Events()
	if len(a2) == 0 || len(a2) != len(b2) {
		t.Fatalf("events: %d vs %d", len(b2), len(a2))
	}
	for i := range a2 {
		if a2[i].Seq != b2[i].Seq || a2[i].Kind != b2[i].Kind || a2[i].Name != b2[i].Name || a2[i].Value != b2[i].Value {
			t.Fatalf("event %d: %+v vs %+v", i, b2[i], a2[i])
		}
	}
	// The crash marker made it into the tail.
	found := false
	for _, e := range b2 {
		if e.Name == "pmem.crash" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pmem.crash missing from recovered tail: %+v", b2)
	}
}

func TestPoolInfo(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	p.Store(a, 9)
	p.Persist(a, 1)
	p.SetRoot(2, a)
	b, _ := p.Alloc(3)
	p.Free(b)

	info := p.Info()
	if info.Words != 256 || info.FormatVersion != 3 {
		t.Fatalf("info = %+v", info)
	}
	if info.LiveWords != 4 || info.LiveBlocks != 1 || info.FreeBlocks != 1 {
		t.Fatalf("alloc info = %+v", info)
	}
	if info.Roots[2] != a {
		t.Fatalf("roots = %v", info.Roots)
	}
	if info.Stats.Allocs != 2 || info.Stats.Frees != 1 {
		t.Fatalf("stats = %+v", info.Stats)
	}
	if info.NonzeroWords == 0 {
		t.Fatal("nonzero durable words = 0")
	}
}
