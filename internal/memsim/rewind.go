package memsim

// Rewind points and crash points: Mark records the whole state of a
// Memory and Rewind returns to it; CrashPoint records only the durable
// image and CrashTo returns to it with every cache line dropped, as if
// the power had failed there. Together they let many faults start from
// one set-up (and launched) state without building the system again,
// and every crash point of a launch come from that one launch. A crash
// campaign takes a crash point at each mid-kernel case's block boundary
// of its launch, marks the launched state, and returns to one or the
// other before each case.
//
// Both share one undo log in mutateNVM, the one durable mutator, which
// saves a line's bytes the first time a mutation changes them after the
// last Mark, crash point or return (a restart), so going back costs
// O(lines changed since the point), not O(image). Mark also copies the
// cache, which Rewind restores whole; CrashTo only clears every way's
// valid flag, as Crash does. Growth only appends zeros past the recorded
// length, and going back cuts it off again.
//
// Going back restores nothing outside the Memory. A persist observer,
// the media model, a fence and a planted drop all carry state of their
// own, so Mark and CrashPoint refuse a Memory that has one, and Rewind
// and CrashTo refuse a Memory that gained one, or allocated, since.

// undoLog is the log Mark and CrashPoint share.
type undoLog struct {
	// addr and data hold one entry per logged line: its address and its
	// LineSize bytes before the change.
	addr []uint64
	data []byte
	// seen has one bit per durable line below limit, set while the line
	// is in the log since the last restart, which came at log length
	// since with the durable image limit bytes long. Lines at or past
	// limit are growth, which going back cuts off instead.
	seen  []uint64
	since int
	limit int
	// points are the crash points in force, in the order taken; serial
	// numbers them, so a handle to a discarded point is told apart from
	// a later one at the same index.
	points []crashPoint
	serial uint64
}

// crashPoint is what CrashPoint records: the log length, the durable
// length and the allocation cursor.
type crashPoint struct {
	id     uint64
	pos    int
	nvmLen int
	next   uint64
}

// CrashPoint is a handle to a crash point taken by Memory.CrashPoint.
type CrashPoint struct {
	i  int
	id uint64
}

// rewindMark is the state Mark recorded.
type rewindMark struct {
	ways    []line // every way's tag, valid, dirty and lru; data is not kept
	data    []byte // every way's bytes, LineSize per way in way order
	lruTick uint64
	next    uint64
	nvmLen  int

	setDirty   []int32
	dirtySets  []uint64
	dirtyLines int
	stats      Stats

	// pos is the log length at the mark and points the number of crash
	// points then in force. A return to one of those points discards the
	// marked state, and live turns false.
	pos    int
	points int
	live   bool
}

// Mark records the Memory's state as the point Rewind returns to,
// replacing any earlier mark. It copies the cache (every way's tag,
// valid, dirty and LRU stamp, and its bytes), the LRU clock, the
// dirty-set index and the statistics, and restarts per-line logging;
// crash points taken before it stay in force, and with none the log
// starts empty. It panics when a persist observer, the media model, a
// fence or a planted drop is active. A warm Mark (the second on the
// same Memory) allocates nothing.
func (m *Memory) Mark() {
	m.checkRewindable("Mark")
	k := m.mark
	if k == nil {
		k = &rewindMark{}
	}
	if nways := m.numSets * m.cfg.Ways; len(k.ways) != nways {
		k.ways = make([]line, nways)
		k.data = make([]byte, nways*m.cfg.LineSize)
	}
	i := 0
	for s := range m.sets {
		for _, l := range m.sets[s].ways {
			k.ways[i] = line{tag: l.tag, valid: l.valid, dirty: l.dirty, lru: l.lru}
			if l.valid {
				copy(k.data[i*m.cfg.LineSize:], l.data)
			}
			i++
		}
	}
	k.lruTick, k.next, k.nvmLen = m.lruTick, m.next, len(m.nvm)
	k.setDirty = append(k.setDirty[:0], m.setDirty...)
	k.dirtySets = append(k.dirtySets[:0], m.dirtySets...)
	k.dirtyLines = m.dirtyLines
	regions := k.stats.NVMWritesByRegion
	k.stats = m.stats
	k.stats.NVMWritesByRegion = copyCounts(regions, m.stats.NVMWritesByRegion)
	u := m.restartLog()
	if len(u.points) == 0 {
		u.addr, u.data, u.since = u.addr[:0], u.data[:0], 0
	}
	k.pos, k.points, k.live = len(u.addr), len(u.points), true
	m.mark = k
}

// Rewind returns the Memory to the state of the last Mark, which stays
// in force for the next Rewind; crash points taken since the mark are
// discarded. It writes the log back to the mark, cuts off durable growth
// and restores the copies Mark took. It panics without a mark, after a
// return to a crash point taken before the mark, when the allocation
// cursor moved since it, or when a persist observer, the media model, a
// fence or a planted drop became active. A warm Rewind allocates
// nothing.
func (m *Memory) Rewind() {
	k := m.mark
	switch {
	case k == nil:
		panic("memsim: Rewind without a Mark")
	case !k.live:
		panic("memsim: Rewind after a return to a crash point taken before the Mark")
	case m.next != k.next:
		panic("memsim: Rewind after an allocation since the Mark")
	}
	m.checkRewindable("Rewind")
	m.unwind(k.pos, k.nvmLen)
	m.undo.points = m.undo.points[:k.points]

	ls := m.cfg.LineSize
	i := 0
	for s := range m.sets {
		ways := m.sets[s].ways
		for j := range ways {
			l, w := &ways[j], k.ways[i]
			l.tag, l.valid, l.dirty, l.lru = w.tag, w.valid, w.dirty, w.lru
			if w.valid {
				// A way once filled keeps its buffer for good, so a way
				// valid at the mark still has one.
				copy(l.data, k.data[i*ls:(i+1)*ls])
			}
			i++
		}
	}
	m.lruTick = k.lruTick
	copy(m.setDirty, k.setDirty)
	copy(m.dirtySets, k.dirtySets)
	m.dirtyLines = k.dirtyLines
	regions := m.stats.NVMWritesByRegion
	m.stats = k.stats
	m.stats.NVMWritesByRegion = copyCounts(regions, k.stats.NVMWritesByRegion)
}

// CrashPoint records the durable image as a point CrashTo returns to: it
// notes where the undo log stands and restarts per-line logging. It
// copies nothing, so taking one costs O(lines logged since the last
// restart), and a warm CrashPoint allocates nothing once the log has
// grown. It panics where Mark does.
func (m *Memory) CrashPoint() CrashPoint {
	m.checkRewindable("CrashPoint")
	u := m.restartLog()
	u.serial++
	u.points = append(u.points, crashPoint{id: u.serial, pos: len(u.addr), nvmLen: len(m.nvm), next: m.next})
	return CrashPoint{i: len(u.points) - 1, id: u.serial}
}

// CrashTo returns the Memory to crash point p, as a power failure there
// would have left it: the durable image p recorded, and no valid cache
// line. It writes the log back to p, newest entry first, cuts off
// durable growth and drops every cache line, at O(lines changed since
// p) plus one pass over the ways; the statistics and the LRU clock run
// on. p stays in force and every later crash point is discarded, as is
// a mark taken after p. It panics for a discarded point, when the
// allocation cursor moved since p, or when a persist observer, the media
// model, a fence or a planted drop became active. A warm CrashTo
// allocates nothing.
func (m *Memory) CrashTo(p CrashPoint) {
	u := m.undo
	if u == nil || p.i >= len(u.points) || u.points[p.i].id != p.id {
		panic("memsim: CrashTo a crash point no longer in force")
	}
	cp := u.points[p.i]
	if m.next != cp.next {
		panic("memsim: CrashTo after an allocation since the crash point")
	}
	m.checkRewindable("CrashTo")
	m.unwind(cp.pos, cp.nvmLen)
	u.points = u.points[:p.i+1]
	if k := m.mark; k != nil && k.points > p.i {
		k.live = false
	}
	m.dropCache()
}

// restartLog starts the undo log if none runs and restarts per-line
// logging at its end, over the durable image as long as it is now.
func (m *Memory) restartLog() *undoLog {
	u := m.undo
	if u == nil {
		u = &undoLog{}
		m.undo = u
	}
	for _, a := range u.addr[u.since:] {
		n := a >> m.lineShift
		u.seen[n/64] &^= 1 << (n % 64)
	}
	u.since, u.limit = len(u.addr), len(m.nvm)
	if n := (len(m.nvm)>>m.lineShift + 63) / 64; len(u.seen) < n {
		u.seen = append(u.seen, make([]uint64, n-len(u.seen))...)
	}
	return u
}

// unwind writes the log back from its end to pos, newest entry first, so
// every line changed since pos gets the bytes it had there; cuts the log
// to pos and the durable image to nvmLen; and restarts per-line logging
// there.
func (m *Memory) unwind(pos, nvmLen int) {
	u := m.undo
	ls := m.cfg.LineSize
	m.undo = nil // the writes back are not logged
	for i := len(u.addr) - 1; i >= pos; i-- {
		m.mutateNVM(u.addr[i], u.data[i*ls:(i+1)*ls])
		n := u.addr[i] >> m.lineShift
		u.seen[n/64] &^= 1 << (n % 64)
	}
	m.undo = u
	u.addr, u.data = u.addr[:pos], u.data[:pos*ls]
	m.nvm = m.nvm[:nvmLen]
	u.since, u.limit = pos, nvmLen
}

// logLines saves the bytes of every line [addr, addr+len(buf)) is about
// to change, the first time it changes since the last restart; mutateNVM
// calls it while the log runs. Lines past the restart's durable length
// are growth, which going back cuts off instead.
func (u *undoLog) logLines(nvm []byte, addr uint64, buf []byte, lineShift uint) {
	ls := uint64(1) << lineShift
	end := addr + uint64(len(buf))
	if end > uint64(u.limit) {
		end = uint64(u.limit)
	}
	for la := addr &^ (ls - 1); la < end; la += ls {
		n := la >> lineShift
		if u.seen[n/64]&(1<<(n%64)) != 0 {
			continue
		}
		// Only bytes that change need saving: a write of equal bytes
		// leaves the line as it was.
		lo, hi := max(la, addr), min(la+ls, end)
		if string(nvm[lo:hi]) == string(buf[lo-addr:hi-addr]) {
			continue
		}
		u.seen[n/64] |= 1 << (n % 64)
		u.addr = append(u.addr, la)
		u.data = append(u.data, nvm[la:la+ls]...)
	}
}

// checkRewindable panics when the Memory carries state going back cannot
// restore.
func (m *Memory) checkRewindable(op string) {
	switch {
	case m.observer != nil:
		panic("memsim: " + op + " with a persist observer attached")
	case m.media != nil:
		panic("memsim: " + op + " with the media model active")
	case len(m.fences) > 0:
		panic("memsim: " + op + " with a fenced range")
	case m.plantDropNth > 0:
		panic("memsim: " + op + " with a planted write-back drop")
	}
}

// copyCounts makes dst (reused, or allocated when nil) hold exactly src's
// entries; a nil src leaves dst empty. Refilling a cleared map with the
// same keys allocates nothing.
func copyCounts(dst, src map[string]int64) map[string]int64 {
	if dst == nil {
		if src == nil {
			return nil
		}
		dst = make(map[string]int64, len(src))
	}
	clear(dst)
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
