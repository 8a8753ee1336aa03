package gpusim

import (
	"reflect"
	"strings"
	"testing"

	"gpulp/internal/memsim"
)

// TestSharedArraysZeroedPerBlock: the device reuses one Block, and
// its shared arrays with it, but every block must still find its arrays
// zeroed, in every launch.
func TestSharedArraysZeroedPerBlock(t *testing.T) {
	d := testDevice()
	var dirty []int
	kernel := func(b *Block) {
		f := b.SharedF32("f", 64)
		u := b.SharedU64("u", 32)
		i := b.SharedI32("i", 16)
		b.ForAll(func(th *Thread) {
			if th.Linear < len(f) && f[th.Linear] != 0 ||
				th.Linear < len(u) && u[th.Linear] != 0 ||
				th.Linear < len(i) && i[th.Linear] != 0 {
				dirty = append(dirty, b.LinearIdx)
			}
		})
		for k := range f {
			f[k] = float32(k + 1)
		}
		for k := range u {
			u[k] = uint64(k + 1)
		}
		for k := range i {
			i[k] = int32(k + 1)
		}
		// A second request in the same block returns the block's writes.
		if b.SharedU64("u", 32)[3] != 4 {
			t.Errorf("block %d: a repeated request lost the block's own writes", b.LinearIdx)
		}
	}
	for launch := 0; launch < 2; launch++ {
		d.Launch("shared", D1(5), D1(64), kernel)
	}
	if len(dirty) > 0 {
		t.Fatalf("blocks %v saw shared data left behind by an earlier block", dirty)
	}
}

// TestSharedArraySizeRules: within one block a name keeps its size (a
// different size panics); a later block may ask for another size and gets
// a zeroed array of that size.
func TestSharedArraySizeRules(t *testing.T) {
	d := testDevice()
	var sizes []int
	d.Launch("resize", D1(3), D1(32), func(b *Block) {
		s := b.SharedI32("s", 8+b.LinearIdx)
		for k := range s {
			if s[k] != 0 {
				t.Errorf("block %d: resized array not zeroed", b.LinearIdx)
			}
			s[k] = -1
		}
		sizes = append(sizes, len(s))
	})
	if !reflect.DeepEqual(sizes, []int{8, 9, 10}) {
		t.Fatalf("sizes = %v, want [8 9 10]", sizes)
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "different size") {
			t.Fatalf("size change within a block: recovered %v, want a size panic", r)
		}
	}()
	d.Launch("resize-in-block", D1(1), D1(32), func(b *Block) {
		b.SharedI32("s", 8)
		b.SharedI32("s", 9)
	})
}

// TestBlockStateNotCarried: a store hook set in block k is gone in block
// k+1, even though the device runs both in the same Block — also when a
// watchdog abort unwinds block k before it can restore the previous hook.
func TestBlockStateNotCarried(t *testing.T) {
	d := testDevice()
	out := d.Alloc("out", 4*64*4)
	hooked := map[int]int{} // block -> hooked stores
	hook := func(th *Thread, r memsim.Region, idx int, bits uint32) {
		hooked[th.Block().LinearIdx]++
	}
	d.Launch("hooks", D1(4), D1(64), func(b *Block) {
		if b.LinearIdx == 1 {
			b.SetStoreHook(hook)
		}
		b.ForAll(func(th *Thread) { th.StoreU32(out, th.GlobalLinear(), 1) })
	})
	if !reflect.DeepEqual(hooked, map[int]int{1: 64}) {
		t.Fatalf("hooked stores per block = %v, want only block 1's 64", hooked)
	}

	dev, _ := wdDevice(t, 1000)
	out = dev.Alloc("out", 4*64*4)
	res := dev.Launch("hung", D1(2), D1(64), func(b *Block) {
		prev := b.SetStoreHook(hook)
		b.ForAll(func(th *Thread) { th.Op(2000) })
		b.SetStoreHook(prev)
	})
	if res.Watchdog == nil {
		t.Fatalf("hung launch not aborted: %+v", res)
	}
	clear(hooked)
	dev.Launch("after", D1(4), D1(64), func(b *Block) {
		b.ForAll(func(th *Thread) { th.StoreU32(out, th.GlobalLinear(), 1) })
	})
	if len(hooked) != 0 {
		t.Fatalf("a hook left behind by the aborted block saw stores %v", hooked)
	}
}

// arenaKernels returns two launches of different shapes over the regions
// of one memory: A has 6 blocks of 64 threads, an atomic per thread and a
// lock per block; B has 3 blocks of 96 threads, two atomics on every
// eighth thread and a shared array of another size under the same name.
func arenaKernels(hot, out memsim.Region, lock *Lock) (a, b KernelFunc) {
	a = func(blk *Block) {
		acc := blk.SharedU64("acc", 64)
		blk.ForAll(func(th *Thread) {
			acc[th.Linear] += uint64(th.AtomicAddI32(hot, th.Linear%4, 1))
			th.Op(3 + th.Linear%5)
			if th.Linear == 0 {
				th.LockAcquire(lock)
				th.Op(20)
				th.LockRelease(lock)
			}
		})
		blk.ForAll(func(th *Thread) { th.StoreU64(out, th.GlobalLinear(), acc[th.Linear]) })
	}
	b = func(blk *Block) {
		acc := blk.SharedU64("acc", 96)
		blk.ForAll(func(th *Thread) {
			if th.Linear%8 == 0 {
				acc[th.Linear] = uint64(th.AtomicAddI32(hot, 4+th.Linear%2, 2))
				th.AtomicAddI32(hot, 7, 1)
			}
			th.Op(10)
		})
		blk.ForAll(func(th *Thread) { th.StoreU64(out, 1000+th.GlobalLinear(), acc[th.Linear]) })
	}
	return a, b
}

// TestLaunchScratchNoCarryOver: launch scratch never carries results from
// one launch into the next. Launches A, B, A run on one Device, and on an
// identical memory with a new Device built before every launch; results,
// traces, heartbeats, memory statistics and durable images must be
// identical.
func TestLaunchScratchNoCarryOver(t *testing.T) {
	type step struct {
		res LaunchResult
		tr  LaunchTrace
		hbs []Heartbeat
	}
	cfg := testDevice().Config()
	run := func(freshDevice bool) ([]step, memsim.Stats, []byte) {
		mem := memsim.MustNew(memsim.DefaultConfig())
		hot := mem.Alloc("hot", 8*4)
		out := mem.Alloc("out", 2000*8)
		hot.HostZero()
		var dev *Device
		var steps []step
		for _, name := range []string{"A", "B", "A"} {
			if dev == nil || freshDevice {
				dev = MustNew(cfg, mem)
			}
			var tr LaunchTrace
			var hbs []Heartbeat
			dev.SetTraceSink(func(lt LaunchTrace) { tr = lt })
			dev.SetHeartbeat(func(hb Heartbeat) { hbs = append(hbs, hb) })
			a, b := arenaKernels(hot, out, dev.NewLock("l"))
			kernel, grid, blk := a, D1(6), D1(64)
			if name == "B" {
				kernel, grid, blk = b, D1(3), D1(96)
			}
			res := dev.Launch(name, grid, blk, kernel)
			if res.Blocks != grid.Size() {
				t.Fatalf("launch %s retired %d of %d blocks", name, res.Blocks, grid.Size())
			}
			steps = append(steps, step{res, tr, hbs})
		}
		return steps, mem.Stats(), mem.NVMImage()
	}
	reused, rStats, rImg := run(false)
	fresh, fStats, fImg := run(true)
	for i := range reused {
		if reused[i].res != fresh[i].res {
			t.Errorf("launch %d result: reused device %+v, fresh device %+v", i, reused[i].res, fresh[i].res)
		}
		if !reflect.DeepEqual(reused[i].tr, fresh[i].tr) {
			t.Errorf("launch %d trace differs between reused and fresh device", i)
		}
		if !reflect.DeepEqual(reused[i].hbs, fresh[i].hbs) {
			t.Errorf("launch %d heartbeats: reused device %v, fresh device %v", i, reused[i].hbs, fresh[i].hbs)
		}
	}
	if a, b := reused[0].res, reused[1].res; a.LockStallCycles == 0 || a.AtomicStallCycles == 0 || b.AtomicStallCycles == 0 {
		t.Fatalf("launches without queueing exercise no event scratch: A %+v, B %+v", a, b)
	}
	if !reflect.DeepEqual(rStats, fStats) {
		t.Errorf("memory stats differ\nreused: %+v\nfresh:  %+v", rStats, fStats)
	}
	if !reflect.DeepEqual(rImg, fImg) {
		t.Errorf("durable images differ")
	}
}

// TestWarmLaunchZeroAlloc: once a device has run a launch of a given
// shape, running it again allocates nothing — launch scratch, block,
// shared arrays, event arena and the schedule pass all reuse storage.
func TestWarmLaunchZeroAlloc(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		d := testDevice()
		hot := d.Alloc("hot", 8*4)
		out := d.Alloc("out", 2000*8)
		hot.HostZero()
		kernel, grid, blk := KernelFunc(nil), D1(6), D1(64)
		if a, b := arenaKernels(hot, out, d.NewLock("l")); name == "A" {
			kernel = a
		} else {
			kernel, grid, blk = b, D1(3), D1(96)
		}
		d.Launch(name, grid, blk, kernel)
		if allocs := testing.AllocsPerRun(20, func() { d.Launch(name, grid, blk, kernel) }); allocs != 0 {
			t.Errorf("warm launch %s: %v allocs, want 0", name, allocs)
		}
	}
}

// TestReentrantLaunchPanics: a launch started from inside a launch on the
// same device (here from a heartbeat) would overwrite the launch scratch
// in flight, so it panics with a message naming both launches. The
// device stays usable afterwards.
func TestReentrantLaunchPanics(t *testing.T) {
	d := testDevice()
	noop := func(b *Block) { b.ForAll(func(th *Thread) { th.Op(1) }) }
	d.SetHeartbeat(func(Heartbeat) { d.Launch("inner", D1(1), D1(32), noop) })
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"inner"`) || !strings.Contains(msg, `"outer"`) {
				t.Fatalf("re-entrant launch: recovered %q, want a panic naming both launches", msg)
			}
		}()
		d.Launch("outer", D1(2), D1(32), noop)
	}()
	d.SetHeartbeat(nil)
	if res := d.Launch("after", D1(2), D1(32), noop); res.Blocks != 2 || res.Interrupted {
		t.Fatalf("launch after a recovered re-entrant panic: %+v", res)
	}
}

// TestScheduleIterationsTraced: the trace reports the timing pass's
// fixed-point iterations and residual. A same-sector atomic storm runs
// all 12 without converging, a lone atomic converges at once, and a
// launch without events runs none.
func TestScheduleIterationsTraced(t *testing.T) {
	d := testDevice()
	var tr LaunchTrace
	d.SetTraceSink(func(lt LaunchTrace) { tr = lt })
	hot := d.Alloc("hot", 8)
	hot.HostZero()

	d.Launch("storm", D1(32), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) { th.AtomicAddI32(hot, 0, 1) })
	})
	if tr.Iterations != 12 || tr.Residual == 0 {
		t.Errorf("atomic storm: %d iterations, residual %d; want 12 and non-zero", tr.Iterations, tr.Residual)
	}

	d.Launch("lone", D1(1), D1(32), func(b *Block) {
		b.ForAll(func(th *Thread) {
			if th.Linear == 0 {
				th.AtomicAddI32(hot, 0, 1)
			}
		})
	})
	if tr.Iterations != 1 || tr.Residual != 0 {
		t.Errorf("lone atomic: %d iterations, residual %d; want 1 and 0", tr.Iterations, tr.Residual)
	}

	d.Launch("quiet", D1(4), D1(32), func(b *Block) { b.ForAll(func(th *Thread) { th.Op(5) }) })
	if tr.Iterations != 0 || tr.Residual != 0 {
		t.Errorf("event-free launch: %d iterations, residual %d; want 0 and 0", tr.Iterations, tr.Residual)
	}
}
