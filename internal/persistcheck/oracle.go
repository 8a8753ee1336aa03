// Package persistcheck is a deterministic, seed-driven crash-consistency
// model checker for the Lazy Persistency runtime. It holds an executable
// specification of the persistency semantics — a pure-Go shadow of the
// durable image maintained from memsim's persistency event stream — and
// generates thousands of seeded scenarios (raw memory-operation
// sequences, kernel runs under every checksum-store backend and the EP
// baseline, crashes at arbitrary points, torn evictions, media bit
// flips) asserting that:
//
//  1. after any crash, the real NVM image matches the oracle shadow bit
//     for bit;
//  2. validation accepts exactly the LP regions the oracle's image says
//     have a matching durable checksum, and hardened recovery restores
//     the fault-free golden image;
//  3. differential properties hold — every store backend, and LP vs
//     every other registered persistency model, all recover to
//     identical persistent contents.
//
// Failing scenarios shrink automatically to minimal reproducers that
// serialize into a replayable corpus (testdata/corpus). The cmd/lpcheck
// driver exposes seed/count/duration knobs for CI smoke vs soak runs.
package persistcheck

import (
	"fmt"

	"gpulp/internal/memsim"
)

// Oracle is the executable persistency spec: a shadow durable image
// rebuilt from the PersistEvent stream alone, sharing no mutation code
// with the memory hierarchy. At every quiescent point the shadow must
// equal the hierarchy's real NVM image; a divergence pinpoints a
// persistency bug on one side or the other.
type Oracle struct {
	mem    *memsim.Memory
	shadow []byte
	prev   func(memsim.PersistEvent)
	// Events counts observed durable mutations; Crashes counts observed
	// power failures.
	Events  int64
	Crashes int
}

// AttachOracle seeds a shadow from the memory's current durable image
// and installs the oracle as its persistency observer (chaining to any
// previous observer). Call Detach when done.
func AttachOracle(mem *memsim.Memory) *Oracle {
	o := &Oracle{mem: mem, shadow: append([]byte(nil), mem.NVMImage()...)}
	o.prev = mem.SetPersistObserver(o.handle)
	return o
}

// Detach restores the previously installed observer.
func (o *Oracle) Detach() { o.mem.SetPersistObserver(o.prev) }

func (o *Oracle) handle(ev memsim.PersistEvent) {
	o.Events++
	switch ev.Kind {
	case memsim.EvWriteBack, memsim.EvTornWriteBack, memsim.EvHostWrite,
		memsim.EvStuckAt, memsim.EvScrubRepair:
		// All four carry the effective bytes that landed on the medium —
		// write-backs and host writes already folded in any media faults,
		// stuck-at asserts carry the forced byte, scrub repairs the
		// rewritten line — so the shadow just copies them.
		o.grow(ev.Addr + uint64(len(ev.Data)))
		copy(o.shadow[ev.Addr:], ev.Data)
	case memsim.EvBitFlip:
		o.grow(ev.Addr + 1)
		o.shadow[ev.Addr] ^= 1 << ev.Bit
	case memsim.EvRestore:
		o.shadow = append(o.shadow[:0], ev.Data...)
	case memsim.EvCrash:
		o.Crashes++
	}
	if o.prev != nil {
		o.prev(ev)
	}
}

func (o *Oracle) grow(end uint64) {
	for uint64(len(o.shadow)) < end {
		o.shadow = append(o.shadow, 0)
	}
}

// Image returns a copy of the shadow durable image, zero-extended to the
// real image's length (never-written NVM reads as zero on both sides).
func (o *Oracle) Image() []byte {
	n := len(o.mem.NVMImage())
	if len(o.shadow) > n {
		n = len(o.shadow)
	}
	out := make([]byte, n)
	copy(out, o.shadow)
	return out
}

// Check compares the shadow against the real durable image and reports
// the first divergence. Both images are zero-extended to equal length:
// allocation alone is not a durable mutation.
func (o *Oracle) Check() error {
	real := o.mem.NVMImage()
	n := len(real)
	if len(o.shadow) > n {
		n = len(o.shadow)
	}
	at := func(img []byte, i int) byte {
		if i < len(img) {
			return img[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		if g, w := at(real, i), at(o.shadow, i); g != w {
			return fmt.Errorf(
				"persistcheck: durable image diverges from oracle at %#x: nvm=%#02x oracle=%#02x (after %d events, %d crashes)",
				i, g, w, o.Events, o.Crashes)
		}
	}
	return nil
}
