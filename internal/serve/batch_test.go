package serve

import (
	"math/rand"
	"reflect"
	"testing"
)

func req(id int, key uint64) Request {
	return Request{ID: id, Op: OpInsert, Key: key, Val: uint64(id) + 1}
}

// TestBatcherNeverEmptyNeverOversized pins the two launchability
// invariants: Take returns 1..max requests whenever the queue is
// non-empty, and never an empty slice.
func TestBatcherNeverEmptyNeverOversized(t *testing.T) {
	b := NewBatcher(4)
	for i := 0; i < 11; i++ {
		b.Add(req(i, uint64(100+i)), int64(i))
	}
	sizes := []int{}
	for b.Len() > 0 {
		batch := b.Take()
		if len(batch) == 0 {
			t.Fatal("Take returned an empty batch with a non-empty queue")
		}
		if len(batch) > 4 {
			t.Fatalf("Take returned %d > max 4", len(batch))
		}
		sizes = append(sizes, len(batch))
	}
	if want := []int{4, 4, 3}; len(sizes) != 3 || sizes[0] != want[0] || sizes[1] != want[1] || sizes[2] != want[2] {
		t.Errorf("batch sizes %v, want [4 4 3]", sizes)
	}
	if b.Take() != nil {
		t.Error("Take on an empty batcher returned a batch")
	}
}

// TestBatcherDefersKeyConflicts: two operations on one key never share a
// batch, and the deferred request keeps its FIFO position among the
// leftovers.
func TestBatcherDefersKeyConflicts(t *testing.T) {
	b := NewBatcher(8)
	b.Add(req(0, 7), 0)
	b.Add(req(1, 9), 1)
	b.Add(req(2, 7), 2) // conflicts with ID 0
	b.Add(req(3, 5), 3)
	b.Add(req(4, 7), 4) // conflicts again

	first := b.Take()
	if len(first) != 3 || first[0].req.ID != 0 || first[1].req.ID != 1 || first[2].req.ID != 3 {
		t.Fatalf("first batch IDs wrong: %+v", first)
	}
	second := b.Take()
	if len(second) != 1 || second[0].req.ID != 2 {
		t.Fatalf("second batch should carry the older conflict (ID 2): %+v", second)
	}
	third := b.Take()
	if len(third) != 1 || third[0].req.ID != 4 {
		t.Fatalf("third batch should carry ID 4: %+v", third)
	}
}

// TestBatcherConflictHeadAlwaysProgresses: even a queue of operations on
// a single key drains one per batch — no livelock, no empty batch.
func TestBatcherConflictHeadAlwaysProgresses(t *testing.T) {
	b := NewBatcher(4)
	for i := 0; i < 5; i++ {
		b.Add(req(i, 42), int64(i))
	}
	for want := 0; want < 5; want++ {
		batch := b.Take()
		if len(batch) != 1 || batch[0].req.ID != want {
			t.Fatalf("single-key drain batch %d: %+v", want, batch)
		}
	}
	if b.Len() != 0 {
		t.Errorf("%d requests left after drain", b.Len())
	}
}

// TestBatcherOldestAdmit feeds the deadline logic.
func TestBatcherOldestAdmit(t *testing.T) {
	b := NewBatcher(2)
	b.Add(req(0, 1), 100)
	b.Add(req(1, 2), 200)
	if got := b.OldestAdmit(); got != 100 {
		t.Errorf("OldestAdmit = %d, want 100", got)
	}
	b.Take()
	b.Add(req(2, 3), 300)
	if got := b.OldestAdmit(); got != 300 {
		t.Errorf("OldestAdmit after drain = %d, want 300", got)
	}
}

func TestBatcherRejectsNonPositiveCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBatcher(0) did not panic")
		}
	}()
	NewBatcher(0)
}

// referenceTake is the batching rule written out plainly: FIFO, at most
// max requests, one per key, everything skipped stays queued in order.
func referenceTake(queue []pendingReq, max int) (taken, rest []pendingReq) {
	seen := map[uint64]bool{}
	for _, p := range queue {
		if len(taken) < max && !seen[p.req.Key] {
			seen[p.req.Key] = true
			taken = append(taken, p)
		} else {
			rest = append(rest, p)
		}
	}
	return taken, rest
}

// TestBatcherMatchesReferenceAndKeepsBatchUntilNextTake: with Take's
// output slice and key set reused, random add/take interleavings still
// produce exactly the reference FIFO/conflict-deferral batches, and a
// returned batch stays intact across later Adds until the next Take.
func TestBatcherMatchesReferenceAndKeepsBatchUntilNextTake(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBatcher(8)
	var model []pendingReq
	id := 0
	for round := 0; round < 400; round++ {
		for n := rng.Intn(12); n > 0; n-- {
			r := req(id, uint64(rng.Intn(6)))
			b.Add(r, int64(id))
			model = append(model, pendingReq{req: r, admitted: int64(id)})
			id++
		}
		if b.Len() == 0 {
			continue
		}
		var want []pendingReq
		want, model = referenceTake(model, 8)
		got := b.Take()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Take = %+v, reference %+v", round, got, want)
		}
		for n := rng.Intn(12); n > 0; n-- {
			r := req(id, uint64(rng.Intn(6)))
			b.Add(r, int64(id))
			model = append(model, pendingReq{req: r, admitted: int64(id)})
			id++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: batch changed by later Adds: %+v, want %+v", round, got, want)
		}
	}
}

// TestBatcherTakeZeroAlloc: steady-state batching allocates nothing.
func TestBatcherTakeZeroAlloc(t *testing.T) {
	b := NewBatcher(256)
	fill := func() {
		for i := 0; i < 300; i++ {
			b.Add(req(i, uint64(i%200)), int64(i))
		}
		for b.Len() > 0 {
			b.Take()
		}
	}
	fill() // grow the queue, output slice and key set once
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("steady-state Add/Take: %v allocs per run, want 0", n)
	}
}
