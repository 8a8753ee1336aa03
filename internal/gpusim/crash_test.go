package gpusim

import (
	"testing"

	"gpulp/internal/memsim"
)

func TestCrashTriggerAfterBlocks(t *testing.T) {
	d := testDevice()
	out := d.Alloc("out", 1024*4)
	d.CrashAfter(3)
	kernel := func(b *Block) {
		b.ForAll(func(th *Thread) {
			th.StoreI32(out, th.GlobalLinear(), int32(th.GlobalLinear()))
		})
	}
	res := d.Launch("work", D1(8), D1(128), kernel)
	if !res.Interrupted {
		t.Fatal("launch was not marked interrupted")
	}
	if res.Blocks != 3 {
		t.Fatalf("retired %d blocks, want exactly 3", res.Blocks)
	}
	// Blocks past the crash point never executed, and the crash dropped
	// the cache: only what had been written back survives.
	if got := out.PeekI32(3*128 + 5); got != 0 {
		t.Fatalf("block 3 wrote %d after the crash", got)
	}
	if dirty := d.Mem().DirtyLines(); dirty != 0 {
		t.Fatalf("%d dirty lines survived the crash", dirty)
	}

	// One-shot: the next launch must run to completion.
	res = d.Launch("work", D1(8), D1(128), kernel)
	if res.Interrupted || res.Blocks != 8 {
		t.Fatalf("crash point not disarmed after firing: %+v", res)
	}
	if got := out.PeekI32(2*128 + 5); got != int32(2*128+5) {
		t.Fatalf("block 2 missing its store after the clean launch: %d", got)
	}
}

func TestCrashTriggerDisarm(t *testing.T) {
	d := testDevice()
	out := d.Alloc("out", 512*4)
	d.CrashAfter(1)
	d.CrashAfter(0)
	res := d.Launch("work", D1(4), D1(128), func(b *Block) {
		b.ForAll(func(th *Thread) { th.StoreI32(out, th.GlobalLinear(), 1) })
	})
	if res.Interrupted || res.Blocks != 4 {
		t.Fatalf("disarmed crash point affected the launch: %+v", res)
	}
}

// TestCrashAfterFromHeartbeat: armed from inside a heartbeat, CrashAfter
// applies to the launch in flight and crashes it at that very block
// boundary, leaving a crash-consistent image; the next launch runs clean.
func TestCrashAfterFromHeartbeat(t *testing.T) {
	d := heartbeatDevice()
	out := d.Alloc("out", 1024*4)
	d.SetHeartbeat(func(hb Heartbeat) {
		if hb.Blocks == 2 {
			d.CrashAfter(1)
		}
	})
	res := d.Launch("work", D1(8), D1(128), fillKernel(out))
	if !res.Interrupted || res.Watchdog != nil {
		t.Fatalf("heartbeat-armed crash not honored: %+v", res)
	}
	if res.Blocks != 2 {
		t.Fatalf("crashed after %d blocks, want 2", res.Blocks)
	}
	img := d.Mem().NVMImage()
	if got := memsim.ImageU32(img, out.Base+uint64((7*128+5)*4)); got != 0 {
		t.Fatalf("block 7 wrote %d after the crash", got)
	}

	d.SetHeartbeat(nil)
	res = d.Launch("work", D1(8), D1(128), fillKernel(out))
	if res.Interrupted || res.Blocks != 8 {
		t.Fatalf("crash leaked into the next launch: %+v", res)
	}
}

// TestCrashAfterUnreachedDisarms: an arm covers one launch. A crash point
// past the grid never fires, and the launch that did not reach it still
// disarms it, so the next launch runs clean too, and so does a later
// launch whose grid the leaked arm would have reached.
func TestCrashAfterUnreachedDisarms(t *testing.T) {
	d := testDevice()
	out := d.Alloc("out", 2048*4)
	d.CrashAfter(9)
	for i, blocks := range []int{8, 8, 16} {
		res := d.Launch("work", D1(blocks), D1(128), fillKernel(out))
		if res.Interrupted || res.Blocks != blocks {
			t.Fatalf("launch %d after an unreached arm: %+v, want all %d blocks uninterrupted", i, res, blocks)
		}
	}
}
