package memsim

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBitFlipUnderSnapshotFrozen: a media bit flip on a clean line lands
// in the durable image and is what post-crash readers load, while a
// SnapshotNVM checkpoint taken before the flip keeps the pre-flip bytes.
func TestBitFlipUnderSnapshotFrozen(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 256)
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, uint32(i)+100)
	}
	m.FlushAll() // every line clean and durable
	ckpt := m.SnapshotNVM()

	addr := r.Base + 4*7 // element 7
	before := r.NVMU32(7)
	m.FlipBit(addr, 3)

	if got := r.NVMU32(7); got != before^(1<<3) {
		t.Errorf("durable image missing flip: read %#x, want %#x", got, before^(1<<3))
	}
	if got := ckpt[addr] ^ m.PeekNVM(addr, 1)[0]; got != 1<<3 {
		t.Errorf("checkpoint differs from the flipped image by %#x, want only the flipped bit %#x", got, 1<<3)
	}

	// After a crash the flip is what post-crash readers load.
	m.Crash()
	if got, _ := r.LoadU32(AccessData, 7); got != before^(1<<3) {
		t.Errorf("post-crash load = %#x, want flipped %#x", got, before^(1<<3))
	}
}

// TestBitFlipUnderSnapshotDirtyLine: a checkpoint taken while a line is
// dirty images the durable bytes, not the cached store; once the line is
// flushed and hit by a flip, the durable image holds the flushed value
// with the flip.
func TestBitFlipUnderSnapshotDirtyLine(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 256)
	r.StoreU32(AccessData, 0, 0xdeadbeef) // dirty, not yet durable
	ckpt := m.SnapshotNVM()

	m.FlushAll()
	m.FlipBit(r.Base, 0)

	if got := r.NVMU32(0); got != 0xdeadbeef^1 {
		t.Errorf("durable image = %#x, want flushed-then-flipped %#x", got, 0xdeadbeef^1)
	}
	if got := ckpt[r.Base : r.Base+4]; !bytes.Equal(got, make([]byte, 4)) {
		t.Errorf("checkpoint of a dirty line = %x, want the durable zeros", got)
	}
}

// TestScrubHealsAndStuckAtPins: a scrub rewrites lines that carry
// transient flips with their intended bytes, and a planted stuck-at bit
// stays pinned in the durable image through a crash.
func TestScrubHealsAndStuckAtPins(t *testing.T) {
	cfg := tinyConfig()
	cfg.Fault = FaultConfig{Enabled: true, Seed: 3, TransientPerWrite: 1}
	m := MustNew(cfg)
	r := m.Alloc("data", 256)
	for i := 0; i < 64; i++ {
		r.StoreU32(AccessData, i, 0x5a5a0000+uint32(i))
	}
	m.FlushAll() // every line now carries one transient flip

	rep := m.Scrub()
	if rep.Healed == 0 {
		t.Fatal("scrub healed nothing — test exercised no repair path")
	}
	m.PlantStuckAt(r.Base+5, 6, 1) // forces a durable byte immediately

	// Durable readers see the healed + pinned bytes: word 1 holds the
	// healed value plus the stuck-at bit (byte 5, bit 6 — bit 14 of the
	// word).
	m.Crash()
	want1 := uint32(0x5a5a0001) | 1<<14
	if got, _ := r.LoadU32(AccessData, 1); got != want1 {
		t.Errorf("post-crash word 1 = %#x, want healed+pinned %#x", got, want1)
	}
}

// TestPersistObserverStream checks that the observer sees every durable
// mutation with the bytes that actually landed: a shadow image replayed
// from events alone must equal the real durable image.
func TestPersistObserverStream(t *testing.T) {
	m := MustNew(tinyConfig())
	shadow := make([]byte, 0)
	grow := func(end uint64) {
		for uint64(len(shadow)) < end {
			shadow = append(shadow, 0)
		}
	}
	crashes := 0
	m.SetPersistObserver(func(ev PersistEvent) {
		switch ev.Kind {
		case EvWriteBack, EvTornWriteBack, EvHostWrite:
			grow(ev.Addr + uint64(len(ev.Data)))
			copy(shadow[ev.Addr:], ev.Data)
		case EvBitFlip:
			grow(ev.Addr + 1)
			shadow[ev.Addr] ^= 1 << ev.Bit
		case EvRestore:
			shadow = append(shadow[:0], ev.Data...)
		case EvCrash:
			crashes++
		}
	})

	r := m.Alloc("data", 512)
	for i := 0; i < 128; i++ {
		r.StoreU32(AccessData, i, uint32(i)^0x5a5a)
	}
	m.FlushAddr(r.Base)
	r.HostWriteU64s([]uint64{1, 2, 3})
	m.InjectBitFlips(rand.New(rand.NewSource(3)), 5)
	m.PartialCrash(rand.New(rand.NewSource(9)), CrashProfile{EvictFrac: 0.7, TornFrac: 0.5})

	img := m.NVMImage()
	grow(uint64(len(img)))
	if len(shadow) > len(img) {
		t.Fatalf("shadow grew past the durable image: %d > %d", len(shadow), len(img))
	}
	if !bytes.Equal(shadow, img[:len(shadow)]) {
		t.Error("event-replayed shadow diverges from durable image")
	}
	if crashes != 1 {
		t.Errorf("observed %d crash events, want 1", crashes)
	}

	snap := m.SnapshotNVM()
	m.HostWrite(r.Base, []byte{0xff, 0xff})
	m.RestoreNVM(snap)
	if !bytes.Equal(shadow, m.NVMImage()[:len(shadow)]) {
		t.Error("shadow diverges after restore")
	}
}

// TestPlantDropWriteBack verifies the planted persistency bug: the nth
// write-back is acknowledged (line clean, eviction observed, traffic
// counted) but its bytes never reach NVM — and that the observer-driven
// shadow therefore diverges from the durable image, which is exactly the
// signal the model checker keys on.
func TestPlantDropWriteBack(t *testing.T) {
	m := MustNew(tinyConfig())
	r := m.Alloc("data", 128)
	r.StoreU32(AccessData, 0, 0x11111111)
	r.StoreU32(AccessData, 16, 0x22222222) // second line

	var wbs int
	m.SetPersistObserver(func(ev PersistEvent) {
		if ev.Kind == EvWriteBack {
			wbs++
		}
	})
	m.PlantDropWriteBack(1)
	m.FlushAddr(r.Base)      // dropped: acknowledged, never durable
	m.FlushAddr(r.Base + 64) // persists normally
	if m.DirtyLines() != 0 {
		t.Fatal("planted drop left dirty lines — it must acknowledge the eviction")
	}
	if wbs != 2 {
		t.Fatalf("observer saw %d write-backs, want 2 (the drop is silent)", wbs)
	}
	if got := r.NVMU32(0); got != 0 {
		t.Errorf("dropped write-back reached NVM: %#x", got)
	}
	if got := r.NVMU32(16); got != 0x22222222 {
		t.Errorf("second write-back lost: %#x", got)
	}

	// Disarmed: everything persists again.
	m.PlantDropWriteBack(0)
	r.StoreU32(AccessData, 0, 0x33333333)
	m.FlushAddr(r.Base)
	if got := r.NVMU32(0); got != 0x33333333 {
		t.Errorf("write-back after disarm lost: %#x", got)
	}
}
