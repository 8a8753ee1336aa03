package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidateFlags pins crashdemo's input validation: each case is an
// argument list that is either accepted or rejected with a message
// naming the offending flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"defaults ok", nil, ""},
		{"small cache ok", []string{"-workload=spmv", "-cache=65536"}, ""},
		{"megakv ok", []string{"-workload=megakv-insert", "-scale=2"}, ""},
		{"zero cache", []string{"-cache=0"}, "-cache"},
		{"negative cache", []string{"-cache=-1"}, "-cache"},
		{"unknown workload", []string{"-workload=nope"}, "-workload"},
		{"empty workload", []string{"-workload="}, "-workload"},
		{"zero scale", []string{"-scale=0"}, "-scale"},
		{"negative scale", []string{"-scale=-2"}, "-scale"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("crashdemo", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := register(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatalf("%q: %v", c.args, err)
			}
			err := f.validate()
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
