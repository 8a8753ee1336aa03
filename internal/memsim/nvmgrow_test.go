package memsim

import (
	"bytes"
	"runtime"
	"testing"
)

// TestNVMGrowthImage runs a sequence of allocations, out-of-range durable
// reads and host writes, and after every step compares the durable image
// with a reference grown the simple way: a new exact-size array per
// growth. Length and bytes must match, so amortized growth changes
// nothing a caller can observe.
func TestNVMGrowthImage(t *testing.T) {
	m := MustNew(tinyConfig())
	ls := tinyConfig().LineSize
	ref := []byte{}
	grow := func(end int) {
		if end > len(ref) {
			g := make([]byte, end)
			copy(g, ref)
			ref = g
		}
	}
	check := func(step string) {
		t.Helper()
		img := m.NVMImage()
		if len(img) != len(ref) || !bytes.Equal(img, ref) {
			t.Fatalf("%s: image length %d, reference %d; bytes equal %v", step, len(img), len(ref), bytes.Equal(img, ref))
		}
		if snap := m.SnapshotNVM(); !bytes.Equal(snap, ref) {
			t.Fatalf("%s: SnapshotNVM differs from the reference", step)
		}
	}

	var regions []Region
	for i, size := range []int{10, 3 * ls, 1, 700, ls, 5000} {
		r := m.Alloc("r", size)
		regions = append(regions, r)
		grow(int(r.Base) + (size+ls-1)/ls*ls)
		check("alloc")

		// A durable read past the end grows the image to the read's last line.
		far := uint64(len(ref) + i*ls + 3)
		if got := m.PeekNVM(far, 9); !bytes.Equal(got, make([]byte, 9)) {
			t.Fatalf("out-of-range PeekNVM = %v, want zeros", got)
		}
		grow(int((far+8)&^uint64(ls-1)) + ls)
		check("peek")

		// A host write both inside the region and past the image's end.
		data := bytes.Repeat([]byte{byte(i + 1)}, size)
		m.HostWrite(r.Base, data)
		copy(ref[r.Base:], data)
		check("host write in region")
		beyond := uint64(len(ref) + 5)
		m.HostWrite(beyond, []byte{0xAB, 0xCD, 0xEF})
		grow(int((beyond+2)&^uint64(ls-1)) + ls)
		copy(ref[beyond:], []byte{0xAB, 0xCD, 0xEF})
		check("host write beyond")
	}
	for _, r := range regions {
		if got, want := m.PeekNVM(r.Base, r.Size), ref[r.Base:r.Base+uint64(r.Size)]; !bytes.Equal(got, want) {
			t.Fatalf("region at %d reads back wrong", r.Base)
		}
	}
}

// TestNVMGrowthInPlaceKeepsSnapshot: an allocation that extends the
// durable array inside its spare capacity must not change what an active
// snapshot sees, below its frozen length or past it.
func TestNVMGrowthInPlaceKeepsSnapshot(t *testing.T) {
	m := MustNew(tinyConfig())
	a := m.Alloc("a", 4096)
	m.Alloc("pad", 64) // leaves spare capacity behind the image
	for i := 0; i < a.Size/8; i++ {
		m.HostWrite(a.Base+uint64(i*8), []byte{byte(i), 1, 2, 3, 4, 5, 6, byte(i >> 8)})
	}
	frozenLen := uint64(len(m.nvm))
	if cap(m.nvm) <= len(m.nvm) {
		t.Fatalf("no spare capacity after two allocations (len %d cap %d)", len(m.nvm), cap(m.nvm))
	}
	want := make([]uint64, a.Size/8)
	s := m.BeginSnapshot()
	for i := range want {
		want[i] = s.ReadU64(a.Base + uint64(i*8))
	}

	first := &m.nvm[0]
	b := m.Alloc("b", 64)
	if &m.nvm[0] != first {
		t.Fatalf("allocation inside the spare capacity moved the array")
	}
	if b.Base < frozenLen {
		t.Fatalf("new region at %d lies below the frozen length %d", b.Base, frozenLen)
	}
	m.HostWrite(b.Base, bytes.Repeat([]byte{0xFF}, b.Size))
	m.HostWrite(a.Base, bytes.Repeat([]byte{0xEE}, 64))

	for i, w := range want {
		if got := s.ReadU64(a.Base + uint64(i*8)); got != w {
			t.Fatalf("frozen word %d = %#x after in-place growth, want %#x", i, got, w)
		}
	}
	if got := s.ReadU64(b.Base); got != 0 {
		t.Fatalf("snapshot sees %#x past its frozen length, want 0", got)
	}
	m.EndSnapshot()
	if got := m.PeekNVM(b.Base, b.Size); !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, b.Size)) {
		t.Fatalf("live image lost the new region's write: %v", got)
	}
}

// TestNVMGrowthAmortized: 64 allocations of 64 KiB grow the image 64
// times. With exact-size growth each one copies the whole image, about
// 130 MiB in all; amortized growth must allocate at most a quarter of
// that.
func TestNVMGrowthAmortized(t *testing.T) {
	const n, size = 64, 64 << 10
	m := MustNew(tinyConfig())
	var quadratic uint64
	for k := 1; k <= n; k++ {
		quadratic += uint64(k*size + tinyConfig().LineSize)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		m.Alloc("chunk", size)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > quadratic/4 {
		t.Fatalf("64 x 64 KiB allocations allocated %d bytes, want at most %d (a quarter of exact-size growth)", got, quadratic/4)
	}
}
