package serve

// batch.go coalesces admitted requests into kernel-sized batches. Two
// invariants make a batch both launchable and predictable:
//
//   - never empty: gpusim refuses zero-sized grids, so the serving loop
//     only calls Take when Len() > 0 and Take always returns at least
//     one request;
//   - conflict-free: no two operations in one batch touch the same key.
//     Batch threads run concurrently with no intra-batch ordering, so a
//     key conflict would make the outcome depend on scheduling; deferring
//     the younger request to a later batch keeps every launch's effect a
//     pure function of (durable state, batch contents) — which is what
//     the recovery recompute and the admission ledger check against.
//
// Requests the batcher skips for conflicts keep their queue order (FIFO
// within and across flushes).

// pendingReq is one admitted request waiting to launch.
type pendingReq struct {
	req Request
	// admitted is when it entered the queue (the batching deadline is
	// measured from the oldest of these).
	admitted int64
}

// Batcher is the conflict-aware FIFO coalescer.
type Batcher struct {
	max   int
	queue []pendingReq
	// taken and inBatch are Take's output slice and key set, reused
	// across calls so steady-state batching allocates nothing.
	taken   []pendingReq
	inBatch map[uint64]struct{}
}

// NewBatcher creates a batcher that emits at most max requests per Take.
func NewBatcher(max int) *Batcher {
	if max <= 0 {
		panic("serve: batcher needs a positive batch cap")
	}
	return &Batcher{
		max:     max,
		taken:   make([]pendingReq, 0, max),
		inBatch: make(map[uint64]struct{}, max),
	}
}

// Add enqueues an admitted request.
func (b *Batcher) Add(req Request, admitted int64) {
	b.queue = append(b.queue, pendingReq{req: req, admitted: admitted})
}

// Len returns the queued request count.
func (b *Batcher) Len() int { return len(b.queue) }

// OldestAdmit returns the earliest admission time in the queue; callers
// must check Len() > 0 first.
func (b *Batcher) OldestAdmit() int64 { return b.queue[0].admitted }

// Take removes and returns the next batch: up to max requests in FIFO
// order, skipping (but keeping queued) any request whose key is already
// in this batch. Never returns an empty batch while Len() > 0.
//
// The returned slice is owned by the batcher and valid only until the
// next Take, which overwrites it; callers finish with one batch before
// taking the next.
func (b *Batcher) Take() []pendingReq {
	if len(b.queue) == 0 {
		return nil
	}
	clear(b.inBatch)
	taken := b.taken[:0]
	rest := b.queue[:0]
	for i, p := range b.queue {
		if len(taken) < b.max {
			if _, dup := b.inBatch[p.req.Key]; !dup {
				b.inBatch[p.req.Key] = struct{}{}
				taken = append(taken, p)
				continue
			}
		}
		rest = append(rest, b.queue[i])
	}
	b.queue = rest
	return taken
}
