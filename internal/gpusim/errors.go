// Typed error surface of the simulator: configuration validation
// (matching the memsim convention — New returns an error, MustNew
// panics) and the watchdog abort raised when a kernel livelocks.
package gpusim

import (
	"errors"
	"fmt"
)

// ErrConfig is the sentinel all configuration errors wrap, so callers can
// test errors.Is(err, gpusim.ErrConfig) without matching field details.
var ErrConfig = errors.New("gpusim: invalid configuration")

// ConfigError reports one invalid Config field.
type ConfigError struct {
	// Field is the Config field name; Reason describes the constraint it
	// violated.
	Field  string
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("gpusim: invalid %s: %s", e.Field, e.Reason)
}

// Unwrap ties every ConfigError to the ErrConfig sentinel.
func (e *ConfigError) Unwrap() error { return ErrConfig }

// ErrWatchdog is the sentinel every watchdog abort wraps, so callers can
// test errors.Is(err, gpusim.ErrWatchdog) to distinguish a converted
// livelock from other launch failures.
var ErrWatchdog = errors.New("gpusim: kernel watchdog abort")

// WatchdogError reports a kernel aborted by the bounded-step hang
// detector: some thread exceeded Config.WatchdogSteps charged steps
// inside one block — the simulator's deterministic proxy for a wall-clock
// hang, e.g. a spin lock whose memory word is pinned by a stuck-at media
// fault. The launch is converted into a consistent crash image (all
// volatile state dropped), so ordinary recovery can proceed; Block names
// the culprit so a recovery orchestrator can quarantine its regions.
type WatchdogError struct {
	// Kernel is the launch name; Block/Thread locate the runaway thread
	// (linear block index in the grid, linear thread index in the block).
	Kernel string
	Block  int
	Thread int
	// Steps is the charged-step count that tripped the budget.
	Steps int64
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("gpusim: watchdog abort in kernel %q: block %d thread %d exceeded %d steps",
		e.Kernel, e.Block, e.Thread, e.Steps)
}

// Unwrap ties every WatchdogError to the ErrWatchdog sentinel.
func (e *WatchdogError) Unwrap() error { return ErrWatchdog }

// watchdogAbort is the panic payload that unwinds a hung kernel out of
// the functional pass; runBlockGuarded recovers it and converts it into a
// LaunchResult.Watchdog abort.
type watchdogAbort struct{ err *WatchdogError }

// runBlockGuarded runs kernel(b), converting a watchdog abort into a
// returned *WatchdogError. Every other panic propagates unchanged.
func runBlockGuarded(kernel KernelFunc, b *Block) (wd *WatchdogError) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(watchdogAbort)
			if !ok {
				panic(r)
			}
			wd = a.err
		}
	}()
	kernel(b)
	return nil
}
