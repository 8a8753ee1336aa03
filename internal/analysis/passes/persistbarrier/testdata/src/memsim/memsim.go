// Fixture for the persistbarrier analyzer's raw-nvm shape: a miniature
// of the real memsim internals. Only the durable mutator, mutateNVM, may
// write into the nvm backing array directly.
package memsim

type Memory struct {
	nvm []byte
}

func (m *Memory) mutateNVM(addr uint64, buf []byte) {
	copy(m.nvm[addr:], buf) // the mutator itself: allowed
}

func (m *Memory) growNVM(end int) {
	if end > len(m.nvm) {
		grown := make([]byte, end)
		copy(grown, m.nvm) // nvm as source: fine
		m.nvm = grown      // whole-array replacement: fine
	}
}

func (m *Memory) restoreRaw(img []byte) {
	copy(m.nvm, img) // want "copy into Memory.nvm"
	for i := len(img); i < len(m.nvm); i++ {
		m.nvm[i] = 0 // want "raw write to Memory.nvm"
	}
}

func (m *Memory) pokeByte(addr uint64, b byte) {
	m.nvm[addr] = b // want "raw write to Memory.nvm"
}

func (m *Memory) flipBit(addr uint64, bit uint8) {
	b := m.nvm[addr] ^ (1 << bit) // read: fine
	m.mutateNVM(addr, []byte{b})
}

func (m *Memory) sliceCopy(addr uint64, buf []byte) {
	copy(m.nvm[addr:addr+8], buf) // want "copy into Memory.nvm"
}

func (m *Memory) peek(addr uint64, size int) []byte {
	out := make([]byte, size)
	copy(out, m.nvm[addr:]) // nvm as source: fine
	return out
}
