package memsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// bruteDirty lists the dirty lines by scanning every way of every set,
// set-major and way-minor: the order the drain must follow.
func bruteDirty(m *Memory) []uint64 {
	var tags []uint64
	for i := range m.sets {
		for j := range m.sets[i].ways {
			if l := &m.sets[i].ways[j]; l.valid && l.dirty {
				tags = append(tags, l.tag)
			}
		}
	}
	return tags
}

// checkDirtyIndex compares the whole dirty-set index with a brute-force
// scan of the cache.
func checkDirtyIndex(t *testing.T, m *Memory, where string) {
	t.Helper()
	want := bruteDirty(m)
	if got := m.DirtyLines(); got != len(want) {
		t.Fatalf("%s: DirtyLines() = %d, brute-force scan finds %d", where, got, len(want))
	}
	for s := range m.sets {
		n := int32(0)
		for j := range m.sets[s].ways {
			if l := &m.sets[s].ways[j]; l.valid && l.dirty {
				n++
			}
		}
		if m.setDirty[s] != n {
			t.Fatalf("%s: set %d counts %d dirty ways, scan finds %d", where, s, m.setDirty[s], n)
		}
		if bit := m.dirtySets[s>>6]>>(s&63)&1 == 1; bit != (n > 0) {
			t.Fatalf("%s: set %d bitmap bit %v with %d dirty ways", where, s, bit, n)
		}
	}
	var walked []uint64
	m.forEachDirty(func(l *line) { walked = append(walked, l.tag) })
	if !slices.Equal(walked, want) {
		t.Fatalf("%s: indexed walk %#x, scan order %#x", where, walked, want)
	}
}

// TestDirtyIndexProperty drives random op sequences through caches of
// several shapes, with the media fault process off and on, and checks the
// dirty-set index against a brute-force scan after every op. Every
// FlushAll must emit its EvWriteBack events in exactly the scan's
// set-major, way-minor order.
func TestDirtyIndexProperty(t *testing.T) {
	threeSets := tinyConfig()
	threeSets.Ways = 4
	threeSets.CacheBytes = 64 * 4 * 3
	manySets := tinyConfig() // 130 sets: the bitmap spans three words
	manySets.Ways = 2
	manySets.CacheBytes = 64 * 2 * 130
	shapes := []struct {
		name string
		cfg  Config
	}{{"tiny", tinyConfig()}, {"3sets", threeSets}, {"130sets", manySets}}

	for _, sh := range shapes {
		for _, faults := range []bool{false, true} {
			cfg := sh.cfg
			if faults {
				cfg.Fault = FaultConfig{Enabled: true, Seed: 11, TransientPerWrite: 0.2, StuckPerWrite: 0.05}
			}
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/faults=%v/seed=%d", sh.name, faults, seed), func(t *testing.T) {
					runDirtyIndexOps(t, cfg, seed, 1500)
				})
			}
		}
	}
}

func runDirtyIndexOps(t *testing.T, cfg Config, seed int64, ops int) {
	m := MustNew(cfg)
	ls := cfg.LineSize
	r := m.Alloc("data", 4*cfg.CacheBytes)
	rng := rand.New(rand.NewSource(seed))

	var wbs []uint64
	flushing := false
	m.SetPersistObserver(func(ev PersistEvent) {
		if flushing && ev.Kind == EvWriteBack {
			wbs = append(wbs, ev.Addr)
		}
	})
	restore := m.SnapshotNVM()
	words := r.Size / 4
	for step := 0; step < ops; step++ {
		var op string
		switch k := rng.Intn(100); {
		case k < 40:
			op = "Store"
			r.StoreU32(AccessData, rng.Intn(words), rng.Uint32())
		case k < 55:
			op = "Load"
			r.LoadU32(AccessData, rng.Intn(words))
		case k < 65:
			op = "FlushAddr"
			m.FlushAddr(r.Base + uint64(rng.Intn(r.Size)))
		case k < 75:
			op = "HostWrite"
			n := 1 + rng.Intn(3*ls)
			off := rng.Intn(r.Size - n + 1)
			buf := make([]byte, n)
			rng.Read(buf)
			m.HostWrite(r.Base+uint64(off), buf)
		case k < 85:
			op = "FlushAll"
			want := bruteDirty(m)
			wbs, flushing = wbs[:0], true
			n := m.FlushAll()
			flushing = false
			if n != len(want) || !slices.Equal(wbs, want) {
				t.Fatalf("step %d: FlushAll wrote back %d lines in order %#x, scan predicts %#x", step, n, wbs, want)
			}
		case k < 90:
			op = "PartialCrash"
			m.PartialCrash(rand.New(rand.NewSource(rng.Int63())), CrashProfile{EvictFrac: 0.6, TornFrac: 0.5})
		case k < 93:
			op = "Crash"
			m.Crash()
		case k < 96:
			op = "RestoreNVM"
			m.RestoreNVM(restore)
		default:
			op = "SnapshotNVM"
			restore = m.SnapshotNVM()
		}
		checkDirtyIndex(t, m, fmt.Sprintf("step %d (%s)", step, op))
	}
}

// TestRegionPeekStaysInsideDurableArray pins why the single-element
// Region peeks may use the non-growing word peeks: Alloc always extends
// the durable array over the whole region.
func TestRegionPeekStaysInsideDurableArray(t *testing.T) {
	m := MustNew(tinyConfig())
	for _, size := range []int{4, 12, 64, 100, 200} {
		if r := m.Alloc("r", size); int(r.End()) > len(m.NVMImage()) {
			t.Fatalf("region [%#x,%#x) ends past the %d-byte durable array", r.Base, r.End(), len(m.NVMImage()))
		}
	}
}

// TestSteadyStateZeroAlloc pins the allocation-free per-launch paths: the
// epoch drain (clean and sparse), the host staging writers and the
// single-element peeks.
func TestSteadyStateZeroAlloc(t *testing.T) {
	m := MustNew(DefaultConfig())
	ls := m.LineSize()
	batch := m.Alloc("batch", 256*8)
	data := m.Alloc("data", 64*37*ls)
	vals := make([]uint64, 256)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	dirty64 := func() {
		for j := 0; j < 64; j++ {
			data.StoreU32(AccessData, j*37*ls/4, uint32(j))
		}
		m.FlushAll()
	}
	dirty64() // first fill allocates the lines' data

	cases := []struct {
		name string
		fn   func()
	}{
		{"FlushAll clean", func() { m.FlushAll() }},
		{"FlushAll 64 dirty", dirty64},
		{"HostZero", batch.HostZero},
		{"HostWriteU64s", func() { batch.HostWriteU64s(vals) }},
		{"PeekU32/U64/F32/I32", func() {
			_, _ = batch.PeekU32(3), batch.PeekU64(5)
			_, _ = batch.PeekF32(7), batch.PeekI32(9)
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(50, c.fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
}
