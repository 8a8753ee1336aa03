package kernels

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"gpulp/internal/core"
	"gpulp/internal/gpusim"
	"gpulp/internal/memsim"
)

// megakvPin is everything one MEGA-KV batch's simulation reports: the
// bare and LP launch results, the LP run's memory statistics and its
// durable image once flushed, the footprint, and a clean crash's
// recovery on a 256 KiB cache (the recompute of every slot included),
// which must leave that same image.
type megakvPin struct {
	name         string
	bare, lp     string
	stats, image string
	persist      int64
	outputs      int
	recovery     string
}

var megakvPins = []megakvPin{
	{
		name:     "megakv-search",
		bare:     "{Name:megakv-search Cycles:1334 Blocks:128 WarpInstrs:12288 L2Bytes:3030240 NVMBytes:1588352 AtomicStallCycles:0 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		lp:       "{Name:megakv-search Cycles:1394 Blocks:128 WarpInstrs:28288 L2Bytes:3038432 NVMBytes:1590400 AtomicStallCycles:0 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		stats:    "{Loads:[78311 0 0 0] Stores:[16384 256 0 0] Hits:82526 Misses:12425 NVMLineReads:12425 NVMLineWrites:0 NVMWritesByRegion:map[] FlushedLines:0}",
		image:    "53714832f79ddefb357e33465c8cd1c678c05992ac7c3f2449102c1c757b68b9",
		persist:  131072,
		outputs:  1,
		recovery: "{Rounds:2 FailedPerRound:[19 0] FirstFailed:[107 109 110 112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127] ValidateCycles:1292 RecoverCycles:1408 BackoffCycles:0 Tier:selective}",
	},
	{
		name:     "megakv-insert",
		bare:     "{Name:megakv-insert Cycles:103372 Blocks:128 WarpInstrs:16676 L2Bytes:7600672 NVMBytes:1588352 AtomicStallCycles:10622275 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		lp:       "{Name:megakv-insert Cycles:103432 Blocks:128 WarpInstrs:32676 L2Bytes:7608864 NVMBytes:1590400 AtomicStallCycles:10622275 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		stats:    "{Loads:[188369 0 16384 0] Stores:[32768 256 16384 0] Hits:241736 Misses:12425 NVMLineReads:12425 NVMLineWrites:0 NVMWritesByRegion:map[] FlushedLines:0}",
		image:    "d3242141c0b3b1a6c59dc090b769d296f2fb8d59c5a2e7f7d601c8091b980b02",
		persist:  2097152,
		outputs:  1,
		recovery: "{Rounds:2 FailedPerRound:[37 0] FirstFailed:[74 89 90 92 94 95 97 98 99 100 101 102 103 104 105 106 107 108 109 110 111 112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127] ValidateCycles:3462 RecoverCycles:15603 BackoffCycles:0 Tier:selective}",
	},
	{
		name:     "megakv-delete",
		bare:     "{Name:megakv-delete Cycles:103299 Blocks:128 WarpInstrs:7460 L2Bytes:2357792 NVMBytes:1457280 AtomicStallCycles:10622275 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		lp:       "{Name:megakv-delete Cycles:103359 Blocks:128 WarpInstrs:23460 L2Bytes:2365984 NVMBytes:1459328 AtomicStallCycles:10622275 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		stats:    "{Loads:[40913 0 16384 0] Stores:[16384 256 16384 0] Hits:78920 Misses:11401 NVMLineReads:11401 NVMLineWrites:0 NVMWritesByRegion:map[] FlushedLines:0}",
		image:    "709cf3d9fb001466b10493938c0b673291571bafd4cf8c7f13ba1e0d2769e2c2",
		persist:  2097152,
		outputs:  1,
		recovery: "{Rounds:2 FailedPerRound:[39 0] FirstFailed:[74 89 90 91 92 94 95 96 97 98 99 100 101 102 103 104 105 106 107 108 109 110 111 112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127] ValidateCycles:3462 RecoverCycles:11929 BackoffCycles:0 Tier:selective}",
	},
	{
		name:     "megakv-mixed",
		bare:     "{Name:megakv-mixed Cycles:37949 Blocks:128 WarpInstrs:16508 L2Bytes:3644672 NVMBytes:1719424 AtomicStallCycles:4512726 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		lp:       "{Name:megakv-mixed Cycles:38009 Blocks:128 WarpInstrs:32508 L2Bytes:3652864 NVMBytes:1721472 AtomicStallCycles:4512726 LockStallCycles:0 MaxConcurrency:128 Interrupted:false Watchdog:<nil>}",
		stats:    "{Loads:[85224 0 8192 0] Stores:[20480 256 8192 0] Hits:108895 Misses:13449 NVMLineReads:13449 NVMLineWrites:0 NVMWritesByRegion:map[] FlushedLines:0}",
		image:    "011e51d530ef0c69565e68a604dfa3218a63084f5650cabc2c5764148a996209",
		persist:  2228224,
		outputs:  2,
		recovery: "{Rounds:2 FailedPerRound:[33 0] FirstFailed:[74 92 95 97 98 99 101 102 103 104 105 106 107 108 109 110 111 112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127] ValidateCycles:2592 RecoverCycles:6980 BackoffCycles:0 Tier:selective}",
	},
}

func imageHash(mem *memsim.Memory) string {
	return fmt.Sprintf("%x", sha256.Sum256(mem.NVMImage()))
}

// The plain types print every field, without the String methods'
// summaries.
type (
	plainLaunch gpusim.LaunchResult
	plainReport core.RecoveryReport
)

// TestMegaKVPinned holds every MEGA-KV batch to its recorded numbers.
func TestMegaKVPinned(t *testing.T) {
	for _, p := range megakvPins {
		t.Run(p.name, func(t *testing.T) {
			check := func(what, got, want string) {
				t.Helper()
				if got != want {
					t.Errorf("%s:\n got %s\nwant %s", what, got, want)
				}
			}

			dev := newTestDevice()
			w := New(p.name, 1)
			w.Setup(dev)
			check("bare launch", fmt.Sprintf("%+v", plainLaunch(runFull(dev, w, nil))), p.bare)
			if err := w.Verify(); err != nil {
				t.Fatalf("bare run: %v", err)
			}

			dev = newTestDevice()
			w = New(p.name, 1)
			w.Setup(dev)
			grid, blk := w.Geometry()
			lp := core.New(dev, core.DefaultConfig(), grid, blk)
			check("LP launch", fmt.Sprintf("%+v", plainLaunch(runFull(dev, w, lp))), p.lp)
			if err := w.Verify(); err != nil {
				t.Fatalf("LP run: %v", err)
			}
			check("memsim stats", fmt.Sprintf("%+v", dev.Mem().Stats()), p.stats)
			dev.Mem().FlushAll()
			check("durable image", imageHash(dev.Mem()), p.image)
			if got := w.PersistBytes(); got != p.persist {
				t.Errorf("PersistBytes = %d, want %d", got, p.persist)
			}
			if got := len(w.Outputs()); got != p.outputs {
				t.Errorf("len(Outputs()) = %d, want %d", got, p.outputs)
			}

			mcfg := memsim.DefaultConfig()
			mcfg.CacheBytes = 256 << 10
			gcfg := gpusim.DefaultConfig()
			gcfg.NumSMs = 16
			dev = gpusim.MustNew(gcfg, memsim.MustNew(mcfg))
			w = New(p.name, 1)
			w.Setup(dev)
			lp = core.New(dev, core.DefaultConfig(), grid, blk)
			kernel := w.Kernel(lp)
			dev.Launch(w.Name(), grid, blk, kernel)
			dev.Mem().Crash()
			rep, err := lp.ValidateAndRecover(kernel, w.Recompute(), 5)
			if err != nil {
				t.Fatalf("recovery: %v (%+v)", err, rep)
			}
			check("recovery", fmt.Sprintf("%+v", plainReport(rep)), p.recovery)
			check("recovered image", imageHash(dev.Mem()), p.image)
			if err := w.Verify(); err != nil {
				t.Fatalf("recovered run: %v", err)
			}
		})
	}
}
