package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"gpulp/internal/gpusim"
)

// trace.go records host-time spans around the benchmark's calls into
// each layer's public functions. Spans stay in memory and are written out
// once, as Chrome trace-event JSON, when the run ends. A nil *tracer is
// the untraced mode: every method is a no-op apart from the timing the
// caller asked for.

// span is one timed call. Spans of one unit execution share unit; parent
// indexes the enclosing span (-1 for a unit's root span).
type span struct {
	name       string
	unit       int
	parent     int
	start, end time.Duration // since the tracer's epoch
}

type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
	unit  int   // id of the unit execution in progress
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginUnit opens the root span of a new unit execution.
func (t *tracer) beginUnit(name string) int {
	if t == nil {
		return -1
	}
	t.unit++
	return t.begin(name)
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, unit: t.unit, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// add records an already closed span under the innermost open one.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, unit: t.unit, parent: t.open[len(t.open)-1],
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

// timed runs fn and returns its host duration in seconds; when tracing,
// fn is also recorded as a span called name.
func (t *tracer) timed(name string, fn func()) float64 {
	id := t.begin(name)
	d := hostSeconds(fn)
	t.end(id)
	return d
}

// collectedSeconds is hostSeconds from a freshly collected heap, so a
// repeated measurement never pays for the previous repetition's garbage.
func collectedSeconds(fn func()) float64 {
	runtime.GC()
	return hostSeconds(fn)
}

// hostSeconds runs fn and returns its host duration in seconds.
func hostSeconds(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// launchTiming splits one gpusim.Launch call's host time at the
// device's per-block heartbeats (recorded only when tracing).
type launchTiming struct {
	total float64 // Launch entry to return, seconds
	// schedule is the last heartbeat to return (the timing fixed point);
	// blocks are the gaps between heartbeats, the first measured from
	// Launch entry.
	schedule float64
	blocks   []float64
}

// launch runs dev.Launch. When tracing it also installs a heartbeat
// recorder and synthesizes one gpusim.block span per retired block: the
// first covers Launch entry to the first heartbeat, each later one the
// gap since the previous heartbeat.
func (t *tracer) launch(dev *gpusim.Device, name string, grid, blk gpusim.Dim3, k gpusim.KernelFunc) (gpusim.LaunchResult, launchTiming) {
	var lt launchTiming
	if t == nil {
		start := time.Now()
		res := dev.Launch(name, grid, blk, k)
		lt.total = time.Since(start).Seconds()
		return res, lt
	}
	beats := make([]time.Time, 0, grid.Size())
	prev := dev.SetHeartbeat(func(gpusim.Heartbeat) { beats = append(beats, time.Now()) })
	id := t.begin("gpusim.Launch")
	start := time.Now()
	res := dev.Launch(name, grid, blk, k)
	stop := time.Now()
	dev.SetHeartbeat(prev)
	last := start
	for _, b := range beats {
		t.add("gpusim.block", last, b)
		lt.blocks = append(lt.blocks, b.Sub(last).Seconds())
		last = b
	}
	t.end(id)
	t.spans[id].start, t.spans[id].end = start.Sub(t.epoch), stop.Sub(t.epoch)
	lt.total = stop.Sub(start).Seconds()
	lt.schedule = stop.Sub(last).Seconds()
	return res, lt
}

// layerOf names the layer a span belongs to: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's duration minus the part of it covered by
// its direct children.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// unitClosure reports, over every unit execution, the largest gap
// between the unit's root span and the sum of its spans' self times, as
// a share of the root span. Children never overlap and lie inside their
// parent, so the sum must equal the root span.
func (t *tracer) unitClosure() float64 {
	self := t.selfTimes()
	sum := map[int]time.Duration{}
	root := map[int]time.Duration{}
	for i, s := range t.spans {
		sum[s.unit] += self[i]
		if s.parent < 0 {
			root[s.unit] += s.end - s.start
		}
	}
	worst := 0.0
	for u, r := range root {
		if r <= 0 {
			continue
		}
		gap := float64(sum[u]-r) / float64(r)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// writeSelfTable writes per-layer self time, summed over every span,
// with each layer's share of all unit time.
func (t *tracer) writeSelfTable(w io.Writer) {
	self := t.selfTimes()
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for i, s := range t.spans {
		byLayer[layerOf(s.name)] += self[i]
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "# self time by layer over %d traced spans (unit closure within %.4f%%)\n", len(t.spans), 100*t.unitClosure())
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(byLayer[l]) / float64(total)
		}
		fmt.Fprintf(w, "#   %-10s %12.3f ms %7.2f%%\n", l, float64(byLayer[l])/1e6, share)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		err := enc.Encode(event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "unit": s.unit, "parent": s.parent},
		})
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
