package parwork

import (
	"sync/atomic"
	"testing"
)

func TestDoCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		Do(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestDoSerialRunsInOrder(t *testing.T) {
	var order []int
	Do(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("serial Do out of order: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d jobs, want 5", len(order))
	}
}

func TestDoEmpty(t *testing.T) {
	Do(0, 4, func(i int) { t.Fatal("fn called for n=0") })
	Do(-1, 4, func(i int) { t.Fatal("fn called for n<0") })
}

func TestMapKeepsItemOrder(t *testing.T) {
	items := make([]int, 57)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 8} {
		got := Map(items, workers, func(v int) int { return v * v }, nil)
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results for %d items", workers, len(got), len(items))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d is %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapProgressCounts(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 8} {
		var dones, seen []int
		Map(items, workers, func(v int) int { return v }, func(done, total int, r int) {
			if total != len(items) {
				t.Errorf("workers=%d: total=%d, want %d", workers, total, len(items))
			}
			dones = append(dones, done)
			seen = append(seen, r)
		})
		if len(dones) != len(items) {
			t.Fatalf("workers=%d: progress called %d times, want %d", workers, len(dones), len(items))
		}
		for i, d := range dones {
			if d != i+1 {
				t.Fatalf("workers=%d: call %d saw done=%d, want %d", workers, i, d, i+1)
			}
		}
		if workers == 1 {
			for i, r := range seen {
				if r != i {
					t.Fatalf("serial progress saw item %d at call %d: %v", r, i, seen)
				}
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got := Map(nil, 4, func(v int) int { t.Fatal("fn called with no items"); return v },
		func(int, int, int) { t.Fatal("progress called with no items") })
	if len(got) != 0 {
		t.Fatalf("Map over no items returned %v", got)
	}
}
