package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestValidateFlags pins lpcheck's input validation: each case is an
// argument list that is either accepted or rejected with a message
// naming the offending flag.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"defaults ok", nil, ""},
		{"zero budgets keep their meaning", []string{"-n=0", "-ops=0", "-duration=0"}, ""},
		{"budgets ok", []string{"-seed=3", "-n=150", "-ops=200000", "-duration=10m"}, ""},
		{"negative n", []string{"-n=-5"}, "-n"},
		{"negative ops", []string{"-ops=-3"}, "-ops"},
		{"negative duration", []string{"-duration=-1s"}, "-duration"},
		{"every budget negative", []string{"-n=-5", "-ops=-3", "-duration=-1s"}, "-n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("lpcheck", flag.ContinueOnError)
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
