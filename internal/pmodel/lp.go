package pmodel

import (
	"gpulp/internal/checksum"
	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// lpModel adapts the Lazy Persistency runtime (internal/core) to the
// Model contract. It is a thin delegation layer: the kernel is the
// workload's own LP-instrumented body (the Listing 2 pattern), damage
// prediction is core's ValidateImage over the durable image, and
// recovery is the hardened three-tier escalation, charged once: its
// first validation names the damage.
type lpModel struct {
	lp        *core.LP
	kernel    gpusim.KernelFunc
	recompute core.RecomputeFunc
	ck        *core.Checkpoint
	maxRounds int
}

func newLP(dev *gpusim.Device, w Workload, opt Options) Model {
	grid, blk := w.Geometry()
	cfg := opt.lpConfig()
	lp := core.New(dev, cfg, grid, blk)
	var ck *core.Checkpoint
	if opt.Checkpoint {
		// The durable state right after setup is the restore point of
		// last resort (tier 3).
		ck = core.CaptureCheckpoint(dev.Mem())
	}
	return &lpModel{
		lp:        lp,
		kernel:    w.Kernel(lp),
		recompute: w.Recompute(),
		ck:        ck,
		maxRounds: opt.maxRounds(),
	}
}

func (m *lpModel) Name() string              { return "lp" }
func (m *lpModel) Kernel() gpusim.KernelFunc { return m.kernel }
func (m *lpModel) MetadataBytes() int64      { return m.lp.TableBytes() }
func (m *lpModel) BeginEpoch(n uint64)       { m.lp.SetEpoch(n) }
func (m *lpModel) MetadataRegions() []memsim.Region {
	return m.lp.Store().TableRegions()
}

// PredictDamage is core's ValidateImage: a recompute launch refolds every
// region from durable data, and each region's stored entry is read from
// img, so it names the blocks of every region whose entry is missing,
// torn, short of contributors or mismatched — the blocks Recover's first
// validation fails. It needs a hierarchy with no dirty line, as after a
// crash, and leaves a following Recover's cost unchanged. A store that
// cannot serve fused regions predicts nothing; Recover reports it as a
// typed error.
func (m *lpModel) PredictDamage(img []byte) []int {
	failed, _ := m.lp.ValidateImage(img, m.recompute)
	return failed
}

// Recover is core's RecoverHardened; the blocks its first round failed
// are the damage.
func (m *lpModel) Recover() (Report, error) {
	rep, err := m.lp.RecoverHardened(m.kernel, m.recompute, core.RecoverOpts{
		MaxRounds:  m.maxRounds,
		Checkpoint: m.ck,
	})
	return Report{Damaged: rep.FirstFailed, Rounds: rep.Rounds, Tier: string(rep.Tier), Cycles: rep.TotalCycles()}, err
}

// RecoverShard runs core.RecoverBlocks over the shard: validate, re-execute
// the failed blocks, and repeat within the model's round budget, backing
// off backoff << (round-1) cycles before each retry round.
func (m *lpModel) RecoverShard(blocks []int, backoff int64) (ShardReport, error) {
	rep, err := m.lp.RecoverBlocks(m.kernel, m.recompute, blocks, core.ShardRecoverOpts{
		MaxRounds:   m.maxRounds,
		BackoffBase: backoff,
	})
	out := ShardReport{Cycles: rep.TotalCycles(), BackoffCycles: rep.BackoffCycles}
	if len(rep.FailedPerRound) > 0 {
		out.Reexecuted = rep.FailedPerRound[0]
	}
	return out, err
}

// ShardIntact refolds the shard's durable data from img — salting each
// block total with Mix64(epoch, block) exactly as Region.Commit does
// on-device — merges fusion groups, and accepts only when every covered
// region's stored checksum matches the refold. A fusion group only
// partially inside the shard cannot be judged from the shard alone and
// is rejected; the caller falls back to re-execution.
func (m *lpModel) ShardIntact(img []byte, blocks []int, fold BlockFolder) bool {
	cfg := m.lp.Config()
	fusion := m.lp.Fusion()
	grid := m.lp.Grid().Size()
	type group struct {
		st      checksum.State
		covered int
	}
	groups := make(map[int]*group, len(blocks))
	var order []int
	for _, blk := range blocks {
		var st checksum.State
		fold(img, blk, func(bits uint32) {
			switch cfg.Checksum {
			case checksum.Parity:
				st.Par ^= uint64(bits)
			case checksum.Modular:
				st.Mod += uint64(bits)
			default: // Dual
				st.Mod += uint64(bits)
				st.Par ^= uint64(bits)
			}
		})
		salt := checksum.Mix64(m.lp.Epoch(), uint64(blk))
		st.Mod += salt
		st.Par ^= salt
		reg := blk / fusion
		g := groups[reg]
		if g == nil {
			g = &group{}
			groups[reg] = g
			order = append(order, reg)
		}
		g.st.Mod += st.Mod
		g.st.Par ^= st.Par
		g.covered++
	}
	for _, reg := range order {
		size := fusion
		if rem := grid - reg*fusion; rem < size {
			size = rem
		}
		g := groups[reg]
		if g.covered != size {
			return false
		}
		stored, ok := m.lp.Store().ImageLookup(img, uint64(reg))
		if !ok || !stored.Matches(g.st, cfg.Checksum) {
			return false
		}
	}
	return true
}
