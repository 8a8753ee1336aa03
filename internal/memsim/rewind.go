package memsim

// Rewind points: Mark records the whole state of a Memory and Rewind
// returns to it, so many faults can be explored from one set-up (and
// launched) state without building the system again. A crash campaign
// sets a workload up once, marks, and rewinds before each case.
//
// The cache is small and copied whole. The durable image is not: Mark
// starts an undo log in mutateNVM, the one durable mutator, which saves a
// line's bytes the first time a mutation changes them, so a rewind costs
// O(cache + lines changed), not O(image). Growth only appends zeros past
// the marked length, and Rewind cuts it off again.
//
// A rewind restores nothing outside the Memory. A persist observer, the
// media model, a fence and a planted drop all carry state of their own,
// so Mark refuses a Memory that has one, and Rewind refuses a Memory
// that gained one, or allocated, since the mark.

// rewindMark is the state Mark recorded, plus the undo log.
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

	// seen has one bit per durable line below nvmLen: the line's marked
	// bytes are in the undo log. logAddr and logData are the log itself.
	seen    []uint64
	logAddr []uint64
	logData []byte
}

// Mark records the Memory's state as the point Rewind returns to,
// replacing any earlier mark. It copies the cache (every way's tag,
// valid, dirty and LRU stamp, and its bytes), the LRU clock, the
// dirty-set index and the statistics, and starts an empty undo log. It
// panics when a persist observer, the media model, a fence or a planted
// drop is active. A warm Mark (the second on the same Memory) allocates
// nothing.
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
	if n := (len(m.nvm)>>m.lineShift + 63) / 64; cap(k.seen) < n {
		k.seen = make([]uint64, n)
	} else {
		k.seen = k.seen[:n]
		clear(k.seen)
	}
	k.logAddr, k.logData = k.logAddr[:0], k.logData[:0]
	m.mark = k
}

// Rewind returns the Memory to the state of the last Mark, which stays
// in force for the next Rewind. It writes every logged line back through
// mutateNVM, cuts off durable growth and restores the copies Mark took.
// It panics without a mark, when the allocation cursor moved since it,
// or when a persist observer, the media model, a fence or a planted drop
// became active. A warm Rewind allocates nothing.
func (m *Memory) Rewind() {
	k := m.mark
	switch {
	case k == nil:
		panic("memsim: Rewind without a Mark")
	case m.next != k.next:
		panic("memsim: Rewind after an allocation since the Mark")
	}
	m.checkRewindable("Rewind")
	ls := m.cfg.LineSize
	for i, addr := range k.logAddr {
		// The line's seen bit is set, so this write logs nothing.
		m.mutateNVM(addr, k.logData[i*ls:(i+1)*ls])
		n := addr >> m.lineShift
		k.seen[n/64] &^= 1 << (n % 64)
	}
	k.logAddr, k.logData = k.logAddr[:0], k.logData[:0]
	m.nvm = m.nvm[:k.nvmLen]

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

// logLines saves the marked bytes of every line [addr, addr+len(buf))
// is about to change, the first time it changes; mutateNVM calls it
// while a mark is in force. Lines past the marked length are growth,
// which Rewind cuts off instead.
func (k *rewindMark) logLines(nvm []byte, addr uint64, buf []byte, lineShift uint) {
	ls := uint64(1) << lineShift
	end := addr + uint64(len(buf))
	if end > uint64(k.nvmLen) {
		end = uint64(k.nvmLen)
	}
	for la := addr &^ (ls - 1); la < end; la += ls {
		n := la >> lineShift
		if k.seen[n/64]&(1<<(n%64)) != 0 {
			continue
		}
		// Only bytes that change need saving: a write of equal bytes
		// leaves the line as marked.
		lo, hi := max(la, addr), min(la+ls, end)
		if string(nvm[lo:hi]) == string(buf[lo-addr:hi-addr]) {
			continue
		}
		k.seen[n/64] |= 1 << (n % 64)
		k.logAddr = append(k.logAddr, la)
		k.logData = append(k.logData, nvm[la:la+ls]...)
	}
}

// checkRewindable panics when the Memory carries state a rewind cannot
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
