package gpusim

import (
	"reflect"
	"testing"

	"gpulp/internal/memsim"
)

func heartbeatDevice() *Device {
	cfg := DefaultConfig()
	cfg.NumSMs = 4
	cfg.MaxBlocksPerSM = 2
	mem := memsim.MustNew(memsim.Config{
		LineSize: 128, CacheBytes: 1 << 20, Ways: 8,
		NVMReadNS: 160, NVMWriteNS: 480, NVMBandwidthGBs: 326.4,
	})
	return MustNew(cfg, mem)
}

func fillKernel(out memsim.Region) KernelFunc {
	return func(b *Block) {
		b.ForAll(func(th *Thread) {
			th.StoreI32(out, th.GlobalLinear(), int32(th.GlobalLinear()))
		})
	}
}

// TestHeartbeatStream: every retired block emits one heartbeat carrying
// the device identity, launch name, retired count, and a monotonic cycle
// stamp — identically when the launch runs again on a fresh device.
func TestHeartbeatStream(t *testing.T) {
	collect := func() []Heartbeat {
		d := heartbeatDevice()
		d.SetIdentity(7, "gpu7")
		out := d.Alloc("out", 1024*4)
		var hbs []Heartbeat
		d.SetHeartbeat(func(hb Heartbeat) { hbs = append(hbs, hb) })
		res := d.Launch("work", D1(8), D1(128), fillKernel(out))
		if res.Interrupted {
			t.Fatalf("clean launch interrupted: %+v", res)
		}
		return hbs
	}

	first := collect()
	if len(first) != 8 {
		t.Fatalf("8-block launch emitted %d heartbeats, want 8", len(first))
	}
	for i, hb := range first {
		if hb.Device != 7 || hb.Launch != "work" {
			t.Fatalf("heartbeat %d misidentified: %+v", i, hb)
		}
		if hb.Blocks != i+1 {
			t.Fatalf("heartbeat %d reports %d retired blocks, want %d", i, hb.Blocks, i+1)
		}
		if i > 0 && hb.Cycle < first[i-1].Cycle {
			t.Fatalf("heartbeat cycles regressed: %d after %d", hb.Cycle, first[i-1].Cycle)
		}
	}
	if second := collect(); !reflect.DeepEqual(first, second) {
		t.Fatalf("heartbeat streams diverge between runs:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	// SetHeartbeat returns the previous hook and nil detaches.
	d := heartbeatDevice()
	prev := d.SetHeartbeat(func(Heartbeat) {})
	if prev != nil {
		t.Fatal("fresh device had a heartbeat hook")
	}
	if prev = d.SetHeartbeat(nil); prev == nil {
		t.Fatal("SetHeartbeat did not return the previous hook")
	}
}

// TestDeviceIdentity covers the identity plumbing used by the cluster.
func TestDeviceIdentity(t *testing.T) {
	d := heartbeatDevice()
	if d.ID() != 0 || d.Label() != "" {
		t.Fatalf("fresh device identity = (%d, %q)", d.ID(), d.Label())
	}
	d.SetIdentity(3, "gpu3")
	if d.ID() != 3 || d.Label() != "gpu3" {
		t.Fatalf("identity = (%d, %q), want (3, gpu3)", d.ID(), d.Label())
	}
}
