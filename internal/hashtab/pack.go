// Key packing and durable-image lookup: the parts of a checksum store
// that must be readable without a device.
//
// Every store marks slot occupancy in-band by storing key+1 in the key
// word, reserving 0 for "empty" so tables can be durably initialized
// with a plain zero fill. PackKey/UnpackKey centralize that encoding;
// the native fuzz target in fuzz_test.go pins the round-trip.
//
// ImageLookup is the second, device-free read path: it interprets a raw
// durable image (memsim.NVMImage, or the persistency oracle's shadow of
// it) with the same probe sequences the device Lookup uses, but through
// plain byte reads. The crash-consistency checker uses it to predict,
// from the oracle image alone, exactly which keys recovery must find —
// an independent implementation of the lookup semantics, so a
// divergence between ImageLookup-on-oracle and device Lookup-on-NVM
// localizes a persistency bug.
package hashtab

import (
	"gpulp/internal/checksum"
	"gpulp/internal/memsim"
)

// PackKey encodes key for a table's key word: key+1, reserving 0 as the
// in-band empty marker. The key space is [0, 2^64-1) — the all-ones key
// would wrap to the empty marker, and no store can hold it (region ids
// are small integers in practice).
func PackKey(key uint64) uint64 { return key + 1 }

// UnpackKey decodes a key word; ok is false for the empty marker.
func UnpackKey(word uint64) (uint64, bool) {
	if word == 0 {
		return 0, false
	}
	return word - 1, true
}

// imageWord reads uint64 word idx of region r from a durable image,
// with never-written bytes reading as zero.
func imageWord(img []byte, r memsim.Region, idx int) uint64 {
	return memsim.ImageU64(img, r.Base+uint64(idx)*8)
}

// ImageLookup implements Store for quadStore: the triangular probe
// sequence replayed over raw image bytes.
func (q *quadStore) ImageLookup(img []byte, key uint64) (checksum.State, bool) {
	home := q.home(key)
	for i := 0; i <= q.tab.cap; i++ {
		slot := q.slotAt(home, i)
		switch imageWord(img, q.tab.region, q.tab.keyIdx(slot)) {
		case PackKey(key):
			return checksum.State{
				Mod: imageWord(img, q.tab.region, q.tab.modIdx(slot)),
				Par: imageWord(img, q.tab.region, q.tab.parIdx(slot)),
			}, true
		case 0:
			return checksum.State{}, false
		}
	}
	return checksum.State{}, false
}

// ImageLookup implements Store for cuckooStore: one candidate slot per
// table under the store's current hash functions (rehashes evolve the
// seeds; the live store is the only holder of the current epoch, which
// is why image lookup is a store method and not a free function).
func (c *cuckooStore) ImageLookup(img []byte, key uint64) (checksum.State, bool) {
	for table := 0; table < 2; table++ {
		slot := c.slotFor(key, table)
		tab := c.tabs[table]
		if imageWord(img, tab.region, tab.keyIdx(slot)) == PackKey(key) {
			return checksum.State{
				Mod: imageWord(img, tab.region, tab.modIdx(slot)),
				Par: imageWord(img, tab.region, tab.parIdx(slot)),
			}, true
		}
	}
	return checksum.State{}, false
}

// ImageLookup implements Store for globalArray: direct indexing, with
// the sentinel (plain mode) or contributor count (merge mode) deciding
// presence exactly as the device Lookup does.
func (g *globalArray) ImageLookup(img []byte, key uint64) (checksum.State, bool) {
	if g.merge {
		sum, count := g.ImageLookupCount(img, key)
		return sum, count > 0
	}
	g.check(key)
	mod := imageWord(img, g.region, int(key)*gaWords)
	par := imageWord(img, g.region, int(key)*gaWords+1)
	if mod == gaSentinel && par == gaSentinel {
		return checksum.State{}, false
	}
	return checksum.State{Mod: mod, Par: par}, true
}

// ImageLookupCount implements Merger for globalArray: the merged
// checksum and contributor count as img records them.
func (g *globalArray) ImageLookupCount(img []byte, key uint64) (checksum.State, uint64) {
	if !g.merge {
		panic("hashtab: ImageLookupCount on a global array built without MergeCount")
	}
	g.check(key)
	return checksum.State{
		Mod: imageWord(img, g.region, int(key)*gaMergeWords),
		Par: imageWord(img, g.region, int(key)*gaMergeWords+1),
	}, imageWord(img, g.region, int(key)*gaMergeWords+2)
}

// ImageLookup implements Store for chainedStore: the chain walk over
// image bytes, bounded by the pool capacity against corrupt next links.
func (c *chainedStore) ImageLookup(img []byte, key uint64) (checksum.State, bool) {
	bucket := c.bucketOf(key)
	cur := imageWord(img, c.heads, bucket)
	for depth := 0; cur != 0 && depth <= c.cap; depth++ {
		if cur > uint64(c.cap) {
			// A corrupt head or next link (torn write-back of the pool)
			// points outside the pool: the key is unreachable.
			return checksum.State{}, false
		}
		base := int(cur-1) * chainNodeWords
		if imageWord(img, c.pool, base) == PackKey(key) {
			return checksum.State{
				Mod: imageWord(img, c.pool, base+1),
				Par: imageWord(img, c.pool, base+2),
			}, true
		}
		cur = imageWord(img, c.pool, base+3)
	}
	return checksum.State{}, false
}
