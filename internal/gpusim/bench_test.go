package gpusim

import (
	"testing"

	"gpulp/internal/memsim"
)

// BenchmarkLaunchCompute measures a compute-only launch (simulator
// overhead per thread-instruction).
func BenchmarkLaunchCompute(b *testing.B) {
	d := testDevice()
	for i := 0; i < b.N; i++ {
		d.Launch("compute", D1(64), D1(128), func(blk *Block) {
			blk.ForAll(func(t *Thread) { t.Op(100) })
		})
	}
}

// BenchmarkLaunchMemory measures a memory-streaming launch (cache
// simulation throughput).
func BenchmarkLaunchMemory(b *testing.B) {
	d := testDevice()
	data := d.Alloc("data", 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Launch("stream", D1(32), D1(64), func(blk *Block) {
			blk.ForAll(func(t *Thread) {
				t.LoadF32(data, (t.GlobalLinear()*31)%(1<<18))
			})
		})
	}
}

// BenchmarkForAll measures one ForAll phase of a 64-thread block: the
// per-thread dispatch alone (empty) and with one cached load per thread.
func BenchmarkForAll(b *testing.B) {
	d := testDevice()
	data := d.Alloc("data", 64*4)
	bodies := []struct {
		name string
		fn   func(*Thread)
	}{
		{"empty", func(*Thread) {}},
		{"load", func(t *Thread) { t.LoadU32(data, t.Linear) }},
	}
	for _, c := range bodies {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			d.Launch("forall", D1(1), D1(64), func(blk *Block) {
				blk.ForAll(c.fn)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					blk.ForAll(c.fn)
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkAtomicContention measures the two-pass schedule under a
// same-sector atomic storm.
func BenchmarkAtomicContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig()
		cfg.NumSMs = 8
		d := MustNew(cfg, memsim.MustNew(memsim.DefaultConfig()))
		hot := d.Alloc("hot", 4)
		hot.HostZero()
		b.StartTimer()
		d.Launch("storm", D1(256), D1(32), func(blk *Block) {
			blk.ForAll(func(t *Thread) { t.AtomicAddI32(hot, 0, 1) })
		})
	}
}

// BenchmarkLockSerialization measures the lock queueing sweep.
func BenchmarkLockSerialization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig()
		cfg.NumSMs = 8
		d := MustNew(cfg, memsim.MustNew(memsim.DefaultConfig()))
		lock := d.NewLock("l")
		b.StartTimer()
		d.Launch("locked", D1(512), D1(32), func(blk *Block) {
			blk.ForAll(func(t *Thread) {
				if t.Linear == 0 {
					t.LockAcquire(lock)
					t.Op(30)
					t.LockRelease(lock)
				}
			})
		})
	}
}
