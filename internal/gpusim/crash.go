package gpusim

// CrashAfter arms a one-shot mid-launch crash: once n blocks of the next
// launch have retired, the device crashes its memory hierarchy (memsim
// Crash: every volatile line is dropped, as on a power failure) and the
// launch returns with Interrupted set and only the retired blocks
// counted. The grid is left genuinely partial — some blocks completed
// and committed their LP checksums, the rest never ran — which is the
// failure shape crashes between launch boundaries can never produce.
// Apart from the watchdog, it is the only way a launch stops mid-grid.
//
// An arm covers exactly one launch, the next one: that launch disarms it
// when it ends, whether the crash fired or not, so the recovery launches
// that follow run to completion and an arm the launch never reached (n
// past the blocks it retires) cannot strike a later one. The crash fired
// when the launch returns Interrupted with no Watchdog. n <= 0 disarms
// it. Armed from inside a heartbeat, it applies to the launch in flight:
// heartbeats run just before the check, so CrashAfter(1) there crashes
// at that very block boundary.
//
// Blocks execute functionally one at a time in dispatch order, so the
// crash lands on a block boundary of the dispatch sequence. Intra-block
// partial effects are modeled at the memory layer, by torn write-backs
// and partial eviction.
func (d *Device) CrashAfter(n int) { d.crashAfter = n }
