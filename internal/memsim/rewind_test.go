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
	return randomOpsFrom(m, regs, snap, rand.New(rand.NewSource(seed)), n)
}

// randomOpsFrom is randomOps drawing from rng.
func randomOpsFrom(m *Memory, regs []Region, snap []byte, rng *rand.Rand, n int) []AccessResult {
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

// validLines counts the valid ways of the cache.
func validLines(m *Memory) int {
	n := 0
	for s := range m.sets {
		for _, l := range m.sets[s].ways {
			if l.valid {
				n++
			}
		}
	}
	return n
}

// TestCrashPointProperty runs seeded random traffic after a mark, taking
// crash points at random steps, then returns to random points in force,
// each followed by more traffic and more crash points. Every return must
// leave exactly the durable image SnapshotNVM captured when the point was
// taken, with no valid line, and a Rewind after all of it must restore
// the marked state exactly, twice in a row.
func TestCrashPointProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		m := MustNew(rewindConfig())
		regs := []Region{m.Alloc("a", 1000), m.Alloc("b", 2048), m.Alloc("c", 640)}
		randomOps(m, regs, nil, -seed, 80) // leave dirty lines and history behind
		snap := m.SnapshotNVM()
		m.Mark()
		marked := captureState(m)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 2; round++ {
			var points []CrashPoint
			var images [][]byte
			traffic := func(n int) {
				for i := 0; i < n; i++ {
					if rng.Intn(16) == 0 {
						points = append(points, m.CrashPoint())
						images = append(images, m.SnapshotNVM())
					}
					randomOpsFrom(m, regs, snap, rng, 1)
				}
			}
			traffic(200)
			for returns := 0; len(points) > 0 && returns < 12; returns++ {
				j := rng.Intn(len(points))
				m.CrashTo(points[j])
				if !bytes.Equal(m.NVMImage(), images[j]) {
					t.Fatalf("seed %d round %d: CrashTo point %d of %d left a different durable image", seed, round, j, len(points))
				}
				if n := validLines(m); n != 0 {
					t.Fatalf("seed %d round %d: CrashTo left %d valid lines", seed, round, n)
				}
				// The points after j are gone; j stays, and the traffic
				// may take new ones after it.
				points, images = points[:j+1], images[:j+1]
				traffic(rng.Intn(60))
			}
			m.Rewind()
			if d := captureState(m).diff(marked); d != "" {
				t.Fatalf("seed %d round %d: %s differs from the marked state after crash points and Rewind", seed, round, d)
			}
		}
	}
}

// TestMarkKeepsEarlierCrashPoints: a Mark taken after crash points keeps
// them in force. Rewind returns to the mark, and a return to a point
// taken before the mark discards the mark.
func TestMarkKeepsEarlierCrashPoints(t *testing.T) {
	m := MustNew(rewindConfig())
	regs := []Region{m.Alloc("a", 1000), m.Alloc("b", 2048)}
	rng := rand.New(rand.NewSource(7))
	randomOpsFrom(m, regs, nil, rng, 100)
	p := m.CrashPoint()
	atP := m.SnapshotNVM()
	randomOpsFrom(m, regs, nil, rng, 100)
	m.Mark()
	marked := captureState(m)
	for round := 0; round < 2; round++ {
		randomOpsFrom(m, regs, nil, rng, 100)
		m.Rewind()
		if d := captureState(m).diff(marked); d != "" {
			t.Fatalf("round %d: %s differs from the marked state after Rewind", round, d)
		}
	}
	m.CrashTo(p)
	if !bytes.Equal(m.NVMImage(), atP) || validLines(m) != 0 {
		t.Fatal("CrashTo a point taken before the Mark did not restore its durable image")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rewind to a mark taken after the point returned to did not panic")
		}
	}()
	m.Rewind()
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

	p := m.CrashPoint()
	m.HostWrite(r.Base+8192, []byte{4, 5, 6})
	m.CrashTo(p)
	if !bytes.Equal(m.NVMImage(), marked.nvm) {
		t.Fatalf("image is %d bytes after CrashTo, want the %d of the crash point", len(m.NVMImage()), len(marked.nvm))
	}
}

// TestMarkRefusesUnrewindableState: a persist observer, the media model,
// a fence and a planted drop each carry state a rewind cannot restore,
// so Mark and CrashPoint refuse them; Rewind refuses a memory that
// allocated since the mark, or has no mark, and CrashTo a memory that
// allocated since the point, or a point discarded by a return to an
// earlier one.
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
		{"crash point with an observer", func(m *Memory, _ Region) { m.SetPersistObserver(func(PersistEvent) {}) }, takeCrashPoint},
		{"crash point with the media model", func(m *Memory, r Region) { m.PlantStuckAt(r.Base, 0, 1) }, takeCrashPoint},
		{"crash point with a fence", func(m *Memory, r Region) { m.FenceRange("shard", r.Base, r.Size) }, takeCrashPoint},
		{"crash point with a planted drop", func(m *Memory, _ Region) { m.PlantDropWriteBack(1) }, takeCrashPoint},
		{"rewind after a return past the mark", func(m *Memory, _ Region) { p := m.CrashPoint(); m.Mark(); m.CrashTo(p) }, (*Memory).Rewind},
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

func takeCrashPoint(m *Memory) { m.CrashPoint() }

// TestCrashToRefuses: CrashTo refuses a memory that allocated or gained
// a persist observer since the point, and a point a return to an earlier
// one discarded.
func TestCrashToRefuses(t *testing.T) {
	cases := []struct {
		name string
		arm  func(m *Memory, r Region) CrashPoint
	}{
		{"allocation", func(m *Memory, _ Region) CrashPoint {
			p := m.CrashPoint()
			m.Alloc("late", 64)
			return p
		}},
		{"observer", func(m *Memory, _ Region) CrashPoint {
			p := m.CrashPoint()
			m.SetPersistObserver(func(PersistEvent) {})
			return p
		}},
		{"discarded point", func(m *Memory, r Region) CrashPoint {
			first := m.CrashPoint()
			r.StoreU32(AccessData, 0, 1)
			m.FlushAll()
			later := m.CrashPoint()
			m.CrashTo(first)
			m.CrashPoint() // a new point at the discarded one's index
			return later
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(rewindConfig())
			p := tc.arm(m, m.Alloc("a", 256))
			defer func() {
				if recover() == nil {
					t.Fatal("did not panic")
				}
			}()
			m.CrashTo(p)
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

// TestWarmCrashToZeroAlloc: once the undo log has grown, returning to a
// crash point and taking the next allocate nothing.
func TestWarmCrashToZeroAlloc(t *testing.T) {
	m := MustNew(rewindConfig())
	r := m.Alloc("a", 4096)
	p := m.CrashPoint()
	buf := make([]byte, 200)
	n := uint32(0)
	step := func() {
		n++
		for i := 0; i < r.Size/4; i += 16 {
			r.StoreU32(AccessData, i, n)
		}
		m.FlushAll()
		m.CrashPoint()
		m.HostWrite(r.Base+100, buf)
		m.CrashTo(p)
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("warm store/flush/crash point/CrashTo cycle made %v allocations, want 0", allocs)
	}
}
