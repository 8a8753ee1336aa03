package memsim

import "testing"

// BenchmarkCachedLoad measures the hot path: a load that hits in cache.
func BenchmarkCachedLoad(b *testing.B) {
	m := MustNew(DefaultConfig())
	r := m.Alloc("data", 4096)
	r.StoreU32(AccessData, 0, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LoadU32(AccessData, 0)
	}
}

// BenchmarkStreamingStores measures the miss/evict path: stores striding
// through a footprint larger than the cache.
func BenchmarkStreamingStores(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 << 10
	m := MustNew(cfg)
	elems := 1 << 18 // 1 MiB of u32, 16x the cache
	r := m.Alloc("data", elems*4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StoreU32(AccessData, (i*33)%elems, uint32(i))
	}
}

// BenchmarkFlushAll measures the checkpoint operation on a dirty cache.
func BenchmarkFlushAll(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := MustNew(cfg)
		r := m.Alloc("data", 256<<10)
		for e := 0; e < (256<<10)/4; e += 32 {
			r.StoreU32(AccessData, e, uint32(e))
		}
		b.StartTimer()
		m.FlushAll()
	}
}

// BenchmarkFlushAllSparse measures a serving epoch's drain: 64 dirty
// lines, spread over distinct sets, in a DefaultConfig (4 MiB,
// 32,768-line) cache. The dirty-set index makes it cost O(64 lines).
func BenchmarkFlushAllSparse(b *testing.B) {
	m := MustNew(DefaultConfig())
	ls := m.LineSize()
	r := m.Alloc("data", 64*37*ls)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 64; j++ {
			r.StoreU32(AccessData, j*37*ls/4, uint32(i))
		}
		b.StartTimer()
		m.FlushAll()
	}
}
