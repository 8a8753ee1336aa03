package main

import (
	"strings"
	"testing"
)

// defaults mirrors the flag defaults main() registers, so each case
// only states what the user explicitly set.
func defaults() cliFlags {
	return cliFlags{
		model:       "lp",
		policy:      "token-bucket",
		seed:        1,
		rateScale:   1,
		baseline:    true,
		keepClasses: -1,
	}
}

// TestValidateFlags pins the contradictory-combination rejections: each
// case is (explicitly set flags, mutation) and either passes or fails
// with a message naming the offending flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		set     []string
		mut     func(*cliFlags)
		wantErr string
	}{
		{"defaults ok", nil, func(f *cliFlags) {}, ""},
		{"crash with model", []string{"crash"}, func(f *cliFlags) { f.crash = 3 }, ""},
		{"crash bare model", []string{"crash", "model"}, func(f *cliFlags) { f.crash = 3; f.model = "none" }, "-crash"},
		{"crash empty model", []string{"crash", "model"}, func(f *cliFlags) { f.crash = 1; f.model = "" }, "-crash"},
		{"negative crash", []string{"crash"}, func(f *cliFlags) { f.crash = -1 }, "-crash"},
		{"list alone", []string{"list"}, func(f *cliFlags) { f.list = true }, ""},
		{"list with baseline", []string{"list", "baseline"}, func(f *cliFlags) { f.list = true }, "-list"},
		{"list with json", []string{"list", "json"}, func(f *cliFlags) { f.list = true; f.json = true }, "-list"},
		{"admit-rate always-admit", []string{"admit-rate", "policy"},
			func(f *cliFlags) { f.policy = "always-admit"; f.admitRate = 50 }, "-admit-rate"},
		{"admit-burst always-admit", []string{"admit-burst", "policy"},
			func(f *cliFlags) { f.policy = "always-admit"; f.burst = 8 }, "-admit-burst"},
		{"admit knobs token-bucket", []string{"admit-rate", "admit-burst"},
			func(f *cliFlags) { f.admitRate = 50; f.burst = 8 }, ""},
		{"zero rate-scale", []string{"rate-scale"}, func(f *cliFlags) { f.rateScale = 0 }, "-rate-scale"},
		{"negative rate-scale", []string{"rate-scale"}, func(f *cliFlags) { f.rateScale = -2 }, "-rate-scale"},
		{"negative horizon", []string{"horizon"}, func(f *cliFlags) { f.horizon = -1 }, "-horizon"},
		{"negative wait", []string{"wait"}, func(f *cliFlags) { f.wait = -5 }, "-wait"},
		{"unaligned batch", []string{"batch"}, func(f *cliFlags) { f.batch = 100 }, "-batch"},
		{"cluster ok", []string{"devices"}, func(f *cliFlags) { f.devices = 3 }, ""},
		{"cluster failure ok", []string{"devices", "fail-launch", "fail-device"},
			func(f *cliFlags) { f.devices = 3; f.failLaunch = 2; f.failDevice = 1 }, ""},
		{"zero devices", []string{"devices"}, func(f *cliFlags) { f.devices = 0 }, "-devices"},
		{"fail-launch without devices", []string{"fail-launch"}, func(f *cliFlags) { f.failLaunch = 1 }, "-fail-launch"},
		{"keep-classes without devices", []string{"keep-classes"}, func(f *cliFlags) { f.keepClasses = 2 }, "-keep-classes"},
		{"retries without devices", []string{"retries"}, func(f *cliFlags) { f.retries = 2 }, "-retries"},
		{"backoff without devices", []string{"backoff"}, func(f *cliFlags) { f.backoff = 100 }, "-backoff"},
		{"crash with devices", []string{"devices", "crash"},
			func(f *cliFlags) { f.devices = 2; f.crash = 1 }, "-fail-launch"},
		{"fail-launch bare model", []string{"devices", "fail-launch", "model"},
			func(f *cliFlags) { f.devices = 2; f.failLaunch = 1; f.model = "none" }, "-fail-launch"},
		{"fail-device without fail-launch", []string{"devices", "fail-device"},
			func(f *cliFlags) { f.devices = 2; f.failDevice = 1 }, "-fail-device"},
		{"fail-device out of range", []string{"devices", "fail-launch", "fail-device"},
			func(f *cliFlags) { f.devices = 2; f.failLaunch = 1; f.failDevice = 5 }, "-fail-device"},
		{"explicit zero retries", []string{"devices", "fail-launch", "retries"},
			func(f *cliFlags) { f.devices = 1; f.failLaunch = 1; f.retries = 0 }, "-retries"},
		{"negative backoff", []string{"devices", "backoff"},
			func(f *cliFlags) { f.devices = 2; f.backoff = -1 }, "-backoff"},
		{"negative keep-classes", []string{"devices", "keep-classes"},
			func(f *cliFlags) { f.devices = 2; f.keepClasses = -2 }, "-keep-classes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := defaults()
			tc.mut(&f)
			set := map[string]bool{}
			for _, name := range tc.set {
				set[name] = true
			}
			err := validateFlags(set, f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error naming %s, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %s", err, tc.wantErr)
			}
		})
	}
}
