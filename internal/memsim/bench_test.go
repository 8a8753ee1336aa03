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

// BenchmarkLoadHitSameLine measures hits that walk the words of one line.
func BenchmarkLoadHitSameLine(b *testing.B) {
	m := MustNew(DefaultConfig())
	r := m.Alloc("data", 4096)
	words := m.LineSize() / 4
	r.StoreU32(AccessData, 0, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LoadU32(AccessData, i%words)
	}
}

// BenchmarkLoadHitSetConflict measures hits that alternate between two
// lines of one set, so the set scan finds a different way each time.
func BenchmarkLoadHitSetConflict(b *testing.B) {
	cfg := DefaultConfig()
	m := MustNew(cfg)
	stride := cfg.CacheBytes / cfg.Ways // bytes between lines of one set
	r := m.Alloc("data", stride+cfg.LineSize)
	r.StoreU32(AccessData, 0, 1)
	r.StoreU32(AccessData, stride/4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LoadU32(AccessData, (i&1)*stride/4)
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

// BenchmarkRewind measures one Rewind of a 256 KiB cache with 64 dirty
// lines and 256 durable lines changed since the mark: the per-case
// restore of a crash campaign group.
func BenchmarkRewind(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	m := MustNew(cfg)
	words := cfg.LineSize / 4
	r := m.Alloc("data", 1<<20)
	for i := 0; i < r.Size/4; i += words {
		r.StoreU32(AccessData, i, 1)
	}
	m.FlushAll()
	m.Mark()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 256; j++ {
			r.StoreU32(AccessData, j*words, uint32(i))
		}
		m.FlushAll()
		for j := 0; j < 64; j++ {
			r.StoreU32(AccessData, j*words, uint32(i)+1)
		}
		b.StartTimer()
		m.Rewind()
	}
}

// BenchmarkCrashPoint measures one CrashTo on a 256 KiB cache with 64
// dirty lines to drop and 256 durable lines changed since the crash
// point: the per-case return of a crash campaign's mid-kernel case.
func BenchmarkCrashPoint(b *testing.B) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	m := MustNew(cfg)
	words := cfg.LineSize / 4
	r := m.Alloc("data", 1<<20)
	for i := 0; i < r.Size/4; i += words {
		r.StoreU32(AccessData, i, 1)
	}
	m.FlushAll()
	p := m.CrashPoint()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 256; j++ {
			r.StoreU32(AccessData, j*words, uint32(i)+2)
		}
		m.FlushAll()
		for j := 0; j < 64; j++ {
			r.StoreU32(AccessData, j*words, uint32(i)+3)
		}
		b.StartTimer()
		m.CrashTo(p)
	}
}
