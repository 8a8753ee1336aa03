package memsim

import "math/bits"

// dirty.go indexes the cache's dirty lines so that every walk over them —
// the epoch/checkpoint drain (FlushAll), DirtyLines, PartialCrash's
// eviction list and Crash — costs O(dirty
// lines), not O(cache lines). A serving epoch that dirties a few dozen
// lines of a 32,768-line L2 drains in time proportional to those lines.
//
// Invariant: line.dirty changes only through markDirty and markClean, so
// setDirty[s] is the number of dirty ways in set s, bit s of dirtySets is
// set exactly when setDirty[s] > 0, and dirtyLines is their sum. A dirty
// line is always valid: every invalidation cleans the line first.
//
// The index changes how fast a walk runs, never which lines it visits or
// in what order: forEachDirty yields lines in ascending set order and
// ascending way order within a set, the order of a full nested scan.
// Order is observable — the media model draws one seeded fault per
// write-back, PlantDropWriteBack counts write-backs, and the persistency
// oracle replays EvWriteBack events in sequence.

// markDirty records a store into the valid line l.
func (m *Memory) markDirty(l *line) {
	if l.dirty {
		return
	}
	l.dirty = true
	s := m.setIndex(l.tag)
	if m.setDirty[s] == 0 {
		m.dirtySets[s>>6] |= 1 << (s & 63)
	}
	m.setDirty[s]++
	m.dirtyLines++
}

// markClean records that l no longer holds unpersisted bytes (written
// back, or about to be invalidated).
func (m *Memory) markClean(l *line) {
	if !l.dirty {
		return
	}
	l.dirty = false
	s := m.setIndex(l.tag)
	m.setDirty[s]--
	if m.setDirty[s] == 0 {
		m.dirtySets[s>>6] &^= 1 << (s & 63)
	}
	m.dirtyLines--
}

// forEachDirty calls fn on every dirty line, in ascending set order and
// ascending way order. fn may clean the line it is given but must not
// dirty any line.
func (m *Memory) forEachDirty(fn func(*line)) {
	if m.dirtyLines == 0 {
		return
	}
	for w, word := range m.dirtySets {
		for word != 0 {
			ways := m.sets[w<<6|bits.TrailingZeros64(word)].ways
			word &= word - 1
			for j := range ways {
				if l := &ways[j]; l.dirty {
					fn(l)
				}
			}
		}
	}
}
