package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// parse registers, parses and validates args as main does.
func parse(t *testing.T, args []string) (*cliFlags, mode, error) {
	t.Helper()
	fs := flag.NewFlagSet("lpfault", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	m, err := validate(fs, f)
	return f, m, err
}

// sample is a valid value for every flag some mode reads.
var sample = map[string]string{
	"kernels": "tmm", "kinds": "mid-kernel", "model": "lp", "minimize": "false",
	"repro": `{"kernel":"tmm","kind":"mid-kernel","seed":1}`, "scale": "2", "cache": "65536",
	"maxrounds": "2", "rates": "0.01", "stuckfrac": "0.2", "locks": "true", "watchdog": "1000",
	"attempts": "2", "devices": "2", "routers": "round-robin", "failures": "hang", "jobs": "4",
	"minalive": "1", "rfactors": "1,2", "placers": "spread", "rdevices": "3",
}

// selecting returns the arguments that select m.
func selecting(m mode) []string {
	if m.flag == "" {
		return nil
	}
	return []string{"-" + m.flag}
}

// TestValidateFlags pins the mode table's validation: each case is an
// argument list that either selects a mode cleanly or fails with a
// message naming the offending flag. Every mode must accept all the flags
// it reads and reject, by name, each flag only other modes read.
func TestValidateFlags(t *testing.T) {
	type tc struct {
		name    string
		args    []string
		wantErr string
	}
	var cases []tc
	seen := map[string]bool{}
	for _, m := range modes {
		own := selecting(m)
		for _, name := range m.reads {
			if sample[name] == "" {
				t.Fatalf("no sample value for -%s", name)
			}
			own = append(own, "-"+name+"="+sample[name])
		}
		cases = append(cases, tc{m.String() + " reads its own flags", own, ""})
		for _, other := range modes {
			for _, name := range other.reads {
				c := tc{m.String() + " rejects -" + name, append(selecting(m), "-"+name+"="+sample[name]), "-" + name}
				if !slices.Contains(m.reads, name) && !seen[c.name] {
					seen[c.name] = true
					cases = append(cases, c)
				}
			}
		}
	}
	cases = append(cases, []tc{
		{"defaults ok", nil, ""},
		{"shared flags ok", []string{"-replicas", "-seeds=2", "-seed=7", "-json", "-progress", "-parallel=2"}, ""},
		{"two modes", []string{"-cluster", "-serve"}, "exclusive"},
		{"explicitly unselected mode", []string{"-cluster=false", "-kernels=tmm"}, ""},
		{"repro with a mode", []string{"-replicas", "-repro", sample["repro"]}, "-repro"},
		{"repro alone", []string{"-repro", sample["repro"]}, ""},
		{"zero watchdog", []string{"-ratesweep", "-watchdog=0"}, "-watchdog"},
		{"zero attempts", []string{"-ratesweep", "-attempts=0"}, "-attempts"},
		{"zero maxrounds", []string{"-maxrounds=0"}, "-maxrounds"},
		{"zero seeds", []string{"-serve", "-seeds=0"}, "-seeds"},
		{"zero jobs", []string{"-cluster", "-jobs=0"}, "-jobs"},
		{"stuckfrac above 1", []string{"-ratesweep", "-stuckfrac=1.5"}, "-stuckfrac"},
		{"stuckfrac NaN", []string{"-ratesweep", "-stuckfrac=NaN"}, "-stuckfrac"},
		{"empty kernels", []string{"-kernels= "}, "-kernels"},
		{"scale under ratesweep", []string{"-ratesweep", "-scale=2"}, "-scale"},
		{"scale under cluster", []string{"-cluster", "-scale=2"}, "-scale"},
		{"scale under serve", []string{"-serve", "-scale=2"}, "-scale"},
		{"scale under replicas", []string{"-replicas", "-scale=2"}, "-scale"},
		{"cache under serve", []string{"-serve", "-cache=65536"}, "-cache"},
	}...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := parse(t, c.args)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("%q rejected: %v", c.args, err)
			case c.wantErr != "" && err == nil:
				t.Fatalf("%q accepted, want an error naming %s", c.args, c.wantErr)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Fatalf("%q: error %q does not name %s", c.args, err, c.wantErr)
			}
		})
	}
}

// TestValidateReportsFirstFlagByName: with several unread flags set, the
// rejection names the first in flag-name order, whatever the command
// line order.
func TestValidateReportsFirstFlagByName(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "-scale=2", "-cache=65536", "-kinds=mid-kernel"},
		{"-serve", "-kinds=mid-kernel", "-scale=2", "-cache=65536"},
	} {
		_, _, err := parse(t, args)
		if err == nil || !strings.Contains(err.Error(), "-cache does not apply") {
			t.Fatalf("%q: got %v, want -cache rejected first", args, err)
		}
	}
}

// TestListEntriesParsedWhole: a list entry with trailing junk fails the
// mode before any case runs, naming its flag, instead of running as its
// numeric prefix.
func TestListEntriesParsedWhole(t *testing.T) {
	for _, args := range [][]string{
		{"-cluster", "-devices", "2x"},
		{"-ratesweep", "-rates", "0.01abc"},
		{"-replicas", "-rfactors", "2junk"},
		{"-kinds", "nope"},
	} {
		f, m, err := parse(t, args)
		if err != nil {
			t.Fatalf("%q failed validation: %v", args, err)
		}
		rep, err := m.run(f)
		if err == nil || !strings.Contains(err.Error(), args[len(args)-2]) {
			t.Fatalf("%q: got report %v, error %v; want an error naming %s", args, rep, err, args[len(args)-2])
		}
	}
}
