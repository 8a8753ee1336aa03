package memsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// rewindConfig is a 1 KiB cache (4 sets × 4 ways of 64-byte lines) in
// front of an image several times its size, so random traffic evicts.
func rewindConfig() Config {
	return Config{LineSize: 64, CacheBytes: 1024, Ways: 4, NVMReadNS: 160, NVMWriteNS: 480, NVMBandwidthGBs: 326.4}
}

// memState is everything a rewind must restore that a caller can see.
type memState struct {
	nvm      []byte
	dirty    int
	stats    Stats
	coherent []byte
}

func captureState(m *Memory) memState {
	base := uint64(m.LineSize())
	return memState{
		nvm:      m.SnapshotNVM(),
		dirty:    m.DirtyLines(),
		stats:    m.Stats(),
		coherent: m.PeekCoherent(base, int(m.next-base)),
	}
}

func (s memState) diff(o memState) string {
	switch {
	case !bytes.Equal(s.nvm, o.nvm):
		return "NVMImage"
	case s.dirty != o.dirty:
		return "DirtyLines"
	case !reflect.DeepEqual(s.stats, o.stats):
		return "Stats"
	case !bytes.Equal(s.coherent, o.coherent):
		return "PeekCoherent"
	}
	return ""
}

// randomOps runs n seeded operations over the regions and returns every
// AccessResult the loads and stores produced. snap is a durable image
// RestoreNVM may restore.
func randomOps(m *Memory, regs []Region, snap []byte, seed int64, n int) []AccessResult {
	rng := rand.New(rand.NewSource(seed))
	var out []AccessResult
	for i := 0; i < n; i++ {
		r := regs[rng.Intn(len(regs))]
		idx := rng.Intn(r.Size / 4)
		switch op := rng.Intn(100); {
		case op < 40:
			_, res := r.LoadU32(AccessData, idx)
			out = append(out, res)
		case op < 80:
			out = append(out, r.StoreU32(AccessKind(rng.Intn(int(numAccessKinds))), idx, rng.Uint32()))
		case op < 84:
			m.FlushAll()
		case op < 89:
			m.FlushAddr(r.Base + uint64(idx*4))
		case op < 91:
			m.Crash()
		case op < 94:
			m.PartialCrash(rng, CrashProfile{EvictFrac: rng.Float64(), TornFrac: rng.Float64()})
		case op < 96:
			m.InjectBitFlipsRange(rng, r.Base, r.Size, 1+rng.Intn(4))
		case op < 99:
			buf := make([]byte, 1+rng.Intn(150))
			rng.Read(buf)
			off := rng.Intn(r.Size - len(buf) + 1)
			m.HostWrite(r.Base+uint64(off), buf)
		default:
			m.RestoreNVM(snap)
		}
	}
	return out
}

// TestRewindProperty runs seeded random operation sequences after a
// mark and requires each Rewind to restore the marked durable image,
// dirty count, statistics and coherent view, twice in a row, and a
// replay of one sequence after a rewind to produce the same access
// results, so the cache itself (tags, LRU order, dirty bits) came back.
func TestRewindProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		m := MustNew(rewindConfig())
		regs := []Region{m.Alloc("a", 1000), m.Alloc("b", 2048), m.Alloc("c", 640)}
		randomOps(m, regs, nil, -seed, 50)
		snap := m.SnapshotNVM()
		randomOps(m, regs, nil, -seed-1000, 50) // leave dirty lines and history behind
		m.Mark()
		marked := captureState(m)
		var first []AccessResult
		for round := 0; round < 2; round++ {
			got := randomOps(m, regs, snap, seed, 300)
			m.Rewind()
			if d := captureState(m).diff(marked); d != "" {
				t.Fatalf("seed %d round %d: %s differs from the marked state after Rewind", seed, round, d)
			}
			if round == 0 {
				first = got
			} else if !reflect.DeepEqual(first, got) {
				t.Fatalf("seed %d: replay after Rewind produced different access results", seed)
			}
		}
	}
}

// TestRewindCutsGrowth: durable growth after the mark (a host write past
// the image) is cut off again by Rewind.
func TestRewindCutsGrowth(t *testing.T) {
	m := MustNew(rewindConfig())
	r := m.Alloc("a", 256)
	r.StoreU32(AccessData, 3, 7)
	m.Mark()
	marked := captureState(m)
	m.HostWrite(r.Base+4096, []byte{1, 2, 3})
	m.Rewind()
	if len(m.NVMImage()) != len(marked.nvm) {
		t.Fatalf("image is %d bytes after Rewind, want the marked %d", len(m.NVMImage()), len(marked.nvm))
	}
	if d := captureState(m).diff(marked); d != "" {
		t.Fatalf("%s differs from the marked state after Rewind", d)
	}
}

// TestMarkRefusesUnrewindableState: a persist observer, the media model,
// a fence and a planted drop each carry state a rewind cannot restore,
// so Mark refuses them; Rewind refuses a memory that allocated since the
// mark, or has no mark.
func TestMarkRefusesUnrewindableState(t *testing.T) {
	cases := []struct {
		name string
		arm  func(m *Memory, r Region)
		op   func(m *Memory)
	}{
		{"observer", func(m *Memory, _ Region) { m.SetPersistObserver(func(PersistEvent) {}) }, (*Memory).Mark},
		{"media", func(m *Memory, r Region) { m.PlantStuckAt(r.Base, 0, 1) }, (*Memory).Mark},
		{"fence", func(m *Memory, r Region) { m.FenceRange("shard", r.Base, r.Size) }, (*Memory).Mark},
		{"planted drop", func(m *Memory, _ Region) { m.PlantDropWriteBack(1) }, (*Memory).Mark},
		{"no mark", func(*Memory, Region) {}, (*Memory).Rewind},
		{"allocation", func(m *Memory, _ Region) { m.Mark(); m.Alloc("late", 64) }, (*Memory).Rewind},
		{"observer after the mark", func(m *Memory, _ Region) { m.Mark(); m.SetPersistObserver(func(PersistEvent) {}) }, (*Memory).Rewind},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(rewindConfig())
			tc.arm(m, m.Alloc("a", 256))
			defer func() {
				if recover() == nil {
					t.Fatal("did not panic")
				}
			}()
			tc.op(m)
		})
	}
}

// TestWarmRewindZeroAlloc: once its undo log and copies have grown, a
// rewind allocates nothing.
func TestWarmRewindZeroAlloc(t *testing.T) {
	m := MustNew(rewindConfig())
	r := m.Alloc("a", 4096)
	for i := 0; i < r.Size/4; i += 16 {
		r.StoreU32(AccessData, i, uint32(i))
	}
	m.Mark()
	buf := make([]byte, 200)
	step := func() {
		for i := 0; i < r.Size/4; i += 16 {
			r.StoreU32(AccessData, i, uint32(i)+1)
		}
		m.FlushAll()
		m.HostWrite(r.Base+100, buf)
		m.Rewind()
	}
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Fatalf("warm store/flush/rewind cycle made %v allocations, want 0", n)
	}
}
