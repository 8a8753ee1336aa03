package gpusim

// BlockTrace records the timing reconstruction of one executed block.
type BlockTrace struct {
	// LinearIdx is the block's grid-linear index.
	LinearIdx int `json:"block"`
	// Start is the scheduled start cycle; Base the block's cycles
	// excluding queueing; Stall its total queueing delay.
	Start int64 `json:"start"`
	Base  int64 `json:"base"`
	Stall int64 `json:"stall"`
	// Events is the number of serialization events (atomics + lock
	// acquisitions) the block issued.
	Events int `json:"events"`
}

// End returns the block's completion cycle.
func (b BlockTrace) End() int64 { return b.Start + b.Base + b.Stall }

// LaunchTrace is the per-block timing breakdown of one launch, emitted to
// the device's trace sink (SetTraceSink). It is the raw material behind
// the experiment tables: per-block stalls expose exactly where checksum
// insertion serializes.
type LaunchTrace struct {
	// Name is the kernel name; Cycles the launch duration.
	Name   string       `json:"name"`
	Cycles int64        `json:"cycles"`
	Blocks []BlockTrace `json:"blocks"`
	// Iterations is how many fixed-point iterations the timing pass ran
	// (0 for a launch without serialization events, at most 12), and
	// Residual the total change of the per-event delays in the last one:
	// 0 when the pass converged, otherwise how far from a fixed point it
	// stopped.
	Iterations int   `json:"iterations"`
	Residual   int64 `json:"residual"`
}

// TotalStall sums queueing delays over all blocks.
func (t LaunchTrace) TotalStall() int64 {
	var s int64
	for _, b := range t.Blocks {
		s += b.Stall
	}
	return s
}

// MaxEnd returns the latest block completion (equals Cycles).
func (t LaunchTrace) MaxEnd() int64 {
	var m int64
	for _, b := range t.Blocks {
		if e := b.End(); e > m {
			m = e
		}
	}
	return m
}

// SetTraceSink installs a callback receiving a LaunchTrace after every
// launch (nil to disable). Returns the previous sink.
func (d *Device) SetTraceSink(sink func(LaunchTrace)) func(LaunchTrace) {
	prev := d.traceSink
	d.traceSink = sink
	return prev
}

// emitTrace builds and delivers the trace for a completed launch.
func (d *Device) emitTrace(name string, order []int, recs []blockRec, sr schedResult) {
	if d.traceSink == nil {
		return
	}
	tr := LaunchTrace{Name: name, Cycles: sr.cycles, Blocks: make([]BlockTrace, len(recs)),
		Iterations: sr.iters, Residual: sr.residual}
	for i, rec := range recs {
		tr.Blocks[i] = BlockTrace{
			LinearIdx: order[i],
			Start:     rec.start,
			Base:      rec.base,
			Stall:     rec.stall,
			Events:    len(rec.events),
		}
	}
	d.traceSink(tr)
}
