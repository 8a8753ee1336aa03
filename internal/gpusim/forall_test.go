package gpusim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// TestForAllGeometryAndAccounting pins ForAll's counter-driven dispatch:
// every thread sees the index, warp and lane the division formulas give,
// and the phase charges the sum of per-warp maximum lane counts, including
// a partial last warp (70 and 30 threads at 32 lanes).
func TestForAllGeometryAndAccounting(t *testing.T) {
	for _, dim := range []Dim3{D1(70), D2(8, 8), D3(5, 3, 2)} {
		t.Run(fmt.Sprintf("%dx%dx%d", dim.X, dim.Y, dim.Z), func(t *testing.T) {
			d := testDevice()
			ws := d.Config().WarpSize
			ops := func(warp, lane int) int { return 1 + (lane*11+warp*5)%31 }
			next := 0
			res := d.Launch("forall", D1(1), dim, func(b *Block) {
				b.ForAll(func(th *Thread) {
					lin := next
					next++
					if th.Linear != lin || th.Idx != dim.Unlinear(lin) || th.WarpID != lin/ws || th.Lane != lin%ws {
						t.Errorf("thread %d: Linear %d Idx %v WarpID %d Lane %d, want Idx %v WarpID %d Lane %d",
							lin, th.Linear, th.Idx, th.WarpID, th.Lane, dim.Unlinear(lin), lin/ws, lin%ws)
					}
					th.Op(ops(th.WarpID, th.Lane))
				})
			})
			if next != dim.Size() {
				t.Fatalf("ForAll ran %d threads, want %d", next, dim.Size())
			}
			warpMax := map[int]int64{}
			for lin := 0; lin < dim.Size(); lin++ {
				w := lin / ws
				warpMax[w] = max(warpMax[w], int64(ops(w, lin%ws)))
			}
			var want int64
			for _, m := range warpMax {
				want += m
			}
			if res.WarpInstrs != want {
				t.Fatalf("WarpInstrs = %d, want sum of per-warp maxima %d", res.WarpInstrs, want)
			}
		})
	}
}

// TestThreadFields pins Thread's own fields. ForAll assigns each of them
// per thread and zeroes the embedded threadState; a new per-thread field
// belongs in threadState, or it carries over from one thread to the next.
func TestThreadFields(t *testing.T) {
	want := []string{"b", "Idx", "Linear", "WarpID", "Lane", "threadState"}
	typ := reflect.TypeOf(Thread{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Thread fields = %v, want %v; put per-thread state in threadState", got, want)
	}
}

// TestForAllZeroAlloc pins that a warm ForAll phase allocates nothing.
func TestForAllZeroAlloc(t *testing.T) {
	d := testDevice()
	data := d.Alloc("data", 64*4)
	body := func(th *Thread) {
		th.Op(1)
		th.LoadU32(data, th.Linear)
	}
	var allocs float64
	d.Launch("forall", D1(1), D1(64), func(b *Block) {
		b.ForAll(body) // fills the lines
		allocs = testing.AllocsPerRun(50, func() { b.ForAll(body) })
	})
	if allocs != 0 {
		t.Fatalf("warm ForAll: %v allocs per phase, want 0", allocs)
	}
}
