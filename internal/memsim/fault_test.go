package memsim

import (
	"bytes"
	"math/rand"
	"testing"
)

// dirtySystem builds a memory with one region fully written through the
// cache (dirty, nothing persisted yet) and returns the region.
func dirtySystem(t *testing.T) (*Memory, Region) {
	t.Helper()
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 512)
	for i := 0; i < 128; i++ {
		r.StoreU32(AccessData, i, uint32(i)*2654435761+1)
	}
	return m, r
}

func TestPartialCrashAccounting(t *testing.T) {
	m, _ := dirtySystem(t)
	dirty := m.DirtyLines()
	if dirty == 0 {
		t.Fatal("setup produced no dirty lines")
	}
	rep := m.PartialCrash(rand.New(rand.NewSource(1)), CrashProfile{EvictFrac: 0.5, TornFrac: 0.5})
	if rep.Dirty != dirty {
		t.Errorf("report Dirty = %d, want %d", rep.Dirty, dirty)
	}
	if rep.Evicted+rep.Torn+rep.Dropped != rep.Dirty {
		t.Errorf("report does not partition the dirty lines: %v", rep)
	}
	if m.DirtyLines() != 0 {
		t.Error("cache still holds dirty lines after PartialCrash")
	}
}

func TestPartialCrashDeterministic(t *testing.T) {
	var imgs [2][]byte
	for trial := range imgs {
		m, r := dirtySystem(t)
		m.PartialCrash(rand.New(rand.NewSource(42)), CrashProfile{EvictFrac: 0.6, TornFrac: 0.4})
		imgs[trial] = m.PeekNVM(r.Base, r.Size)
	}
	if !bytes.Equal(imgs[0], imgs[1]) {
		t.Fatal("same seed produced different durable images")
	}
}

func TestPartialCrashNilRngIsCrash(t *testing.T) {
	m, r := dirtySystem(t)
	rep := m.PartialCrash(nil, CrashProfile{EvictFrac: 1, TornFrac: 1})
	if rep.Dropped != rep.Dirty || rep.Evicted != 0 || rep.Torn != 0 {
		t.Fatalf("nil rng should drop everything: %v", rep)
	}
	if !bytes.Equal(m.PeekNVM(r.Base, r.Size), make([]byte, r.Size)) {
		t.Error("nil-rng PartialCrash persisted data")
	}
}

func TestPartialCrashFullEviction(t *testing.T) {
	m, r := dirtySystem(t)
	logical := m.PeekCoherent(r.Base, r.Size)
	rep := m.PartialCrash(rand.New(rand.NewSource(3)), CrashProfile{EvictFrac: 1})
	if rep.Evicted != rep.Dirty {
		t.Fatalf("EvictFrac=1 should evict every line: %v", rep)
	}
	if !bytes.Equal(m.PeekNVM(r.Base, r.Size), logical) {
		t.Error("full eviction did not persist the logical image")
	}
}

// TestTornWriteBackPersistsPrefix: with every write-back torn, each
// line's durable contents must be a non-empty, strictly proper, 8-byte
// aligned prefix of the cached line over the old durable contents.
func TestTornWriteBackPersistsPrefix(t *testing.T) {
	cfg := tinyConfig()
	m := MustNew(cfg)
	r := m.Alloc("data", cfg.LineSize) // exactly one line
	for i := 0; i < cfg.LineSize/4; i++ {
		r.StoreU32(AccessData, i, 0xA5A5A5A5)
	}
	rep := m.PartialCrash(rand.New(rand.NewSource(9)), CrashProfile{EvictFrac: 1, TornFrac: 1})
	if rep.Torn != 1 {
		t.Fatalf("expected the single dirty line torn: %v", rep)
	}
	img := m.PeekNVM(r.Base, r.Size)
	n := 0
	for n < len(img) && img[n] == 0xA5 {
		n++
	}
	if n == 0 || n == len(img) || n%8 != 0 {
		t.Fatalf("torn prefix length %d: want non-empty proper multiple of 8", n)
	}
	for _, b := range img[n:] {
		if b != 0 {
			t.Fatal("torn tail does not keep previous durable contents")
		}
	}
}

func TestInjectBitFlipsRange(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 256)
	m.FlushAll()
	before := m.PeekNVM(r.Base, r.Size)
	flipped := m.InjectBitFlipsRange(rand.New(rand.NewSource(5)), r.Base, r.Size, 3)
	if len(flipped) != 3 {
		t.Fatalf("reported %d flips, want 3", len(flipped))
	}
	after := m.PeekNVM(r.Base, r.Size)
	diff := 0
	for i := range after {
		if after[i] != before[i] {
			diff++
		}
	}
	if diff == 0 || diff > 3 {
		t.Fatalf("%d bytes changed, want 1..3 (flips may collide)", diff)
	}
	for _, a := range flipped {
		if !r.Contains(a) {
			t.Fatalf("flip address %#x outside target region", a)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m, r := dirtySystem(t)
	m.FlushAll()
	snap := m.SnapshotNVM()
	golden := m.PeekNVM(r.Base, r.Size)

	for i := 0; i < 128; i++ {
		r.StoreU32(AccessData, i, 0xFFFFFFFF)
	}
	m.FlushAll()
	late := m.Alloc("late", 256)
	late.HostFillU64(0x1111111111111111)

	m.RestoreNVM(snap)
	if !bytes.Equal(m.PeekNVM(r.Base, r.Size), golden) {
		t.Error("restore did not bring back the snapshotted image")
	}
	if !bytes.Equal(m.PeekCoherent(r.Base, r.Size), golden) {
		t.Error("restore left stale cached lines visible")
	}
	if !bytes.Equal(m.PeekNVM(late.Base, late.Size), make([]byte, late.Size)) {
		t.Error("bytes allocated after the snapshot must restore to zero")
	}
}

// --- crash / flush edge cases ---

func TestCrashWithCleanCacheIsNoOp(t *testing.T) {
	m, r := dirtySystem(t)
	m.FlushAll()
	durable := m.PeekNVM(r.Base, r.Size)
	m.Crash() // nothing dirty: durable state must be untouched
	if !bytes.Equal(m.PeekNVM(r.Base, r.Size), durable) {
		t.Error("crash with a clean cache changed the durable image")
	}
	if m.DirtyLines() != 0 {
		t.Error("dirty lines appeared from nowhere")
	}
	if got := r.PeekU32(0); got != uint32(0)*2654435761+1 {
		t.Errorf("post-crash read = %d, want the flushed value", got)
	}
}

func TestFlushAddrUnmappedAndClean(t *testing.T) {
	m, r := dirtySystem(t)
	// An address no allocation covers: not cached, must be a clean no-op.
	if m.FlushAddr(1 << 30) {
		t.Error("FlushAddr on an unmapped address reported a write-back")
	}
	m.FlushAll()
	if m.FlushAddr(r.Base) {
		t.Error("FlushAddr on a clean line reported a write-back")
	}
}

func TestFlushAddrUnaligned(t *testing.T) {
	m, r := dirtySystem(t)
	// Mid-line address: the containing line must be flushed.
	if !m.FlushAddr(r.Base + 13) {
		t.Fatal("FlushAddr mid-line did not write the dirty line back")
	}
	line := m.PeekNVM(r.Base, m.cfg.LineSize)
	want := m.PeekCoherent(r.Base, m.cfg.LineSize)
	if !bytes.Equal(line, want) {
		t.Error("flushed line's durable contents differ from the cached line")
	}
}

// TestPeekViewsConvergeAfterCrash: while a line is dirty the coherent
// and durable views must differ; a crash discards the cached copy, so
// both views collapse to the old durable contents.
func TestPeekViewsConvergeAfterCrash(t *testing.T) {
	m, r := dirtySystem(t)
	if bytes.Equal(m.PeekCoherent(r.Base, r.Size), m.PeekNVM(r.Base, r.Size)) {
		t.Fatal("dirty data: coherent and durable views should diverge")
	}
	durable := m.PeekNVM(r.Base, r.Size)
	m.Crash()
	if !bytes.Equal(m.PeekCoherent(r.Base, r.Size), durable) {
		t.Error("after crash the coherent view must equal the durable image")
	}
	if !bytes.Equal(m.PeekNVM(r.Base, r.Size), durable) {
		t.Error("crash changed the durable image")
	}
}

// TestRestoreNVMSnapshotFrozen: RestoreNVM rolls the durable image back to
// a checkpoint, and a checkpoint taken before the rollback keeps the bytes
// it imaged, so restoring it brings them back.
func TestRestoreNVMSnapshotFrozen(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 256)
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, uint32(i)+7)
	}
	m.FlushAll()
	ckpt := m.SnapshotNVM() // rollback image: elements i+7

	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, 0xcafe0000+uint32(i))
	}
	m.FlushAll() // durable image now holds the cafe values, all lines clean
	frozen := m.SnapshotNVM()

	m.RestoreNVM(ckpt)
	for i := 0; i < 64; i++ {
		if got := r.NVMU32(i); got != uint32(i)+7 {
			t.Fatalf("durable element %d after restore = %#x, want rolled-back %#x", i, got, uint32(i)+7)
		}
	}

	m.RestoreNVM(frozen)
	for i := 0; i < 64; i++ {
		if got := r.NVMU32(i); got != 0xcafe0000+uint32(i) {
			t.Fatalf("durable element %d after restoring the later checkpoint = %#x, want %#x",
				i, got, 0xcafe0000+uint32(i))
		}
	}
}

// TestRestoreNVMSnapshotGrownImage covers the backing-array growth path:
// restoring an image larger than the current durable array grows the array
// to it, and restoring a checkpoint taken before the growth brings back its
// bytes and zeroes everything past its length.
func TestRestoreNVMSnapshotGrownImage(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 128)
	r.HostFillU64(0x2222222222222222)
	frozen := m.SnapshotNVM()

	big := bytes.Repeat([]byte{0x5a}, len(frozen)+4096)
	m.RestoreNVM(big)
	if !bytes.Equal(m.NVMImage(), big) {
		t.Fatal("restoring a larger image did not grow the durable array to it")
	}

	m.RestoreNVM(frozen)
	if got := r.NVMU64(0); got != 0x2222222222222222 {
		t.Errorf("durable word after restoring the checkpoint = %#x, want %#x",
			got, uint64(0x2222222222222222))
	}
	if got := m.PeekNVM(uint64(len(frozen)), 4096); !bytes.Equal(got, make([]byte, 4096)) {
		t.Error("bytes past the checkpoint's length must restore to zero")
	}
}
