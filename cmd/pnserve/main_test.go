package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags covers the run() error paths that return
// before any listener opens, so no case binds a port.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"router with worker", []string{"-router", "-worker"}, "mutually exclusive"},
		{"non-numeric workers", []string{"-workers", "many"}, "invalid -workers"},
		{"zero workers", []string{"-workers", "0"}, "invalid -workers"},
		{"router worker without scheme", []string{"-router", "-workers", "http://127.0.0.1:1,127.0.0.1:2"}, "wants base URLs"},
		{"unknown flag", []string{"-no-such-flag"}, "not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", c.args, err, c.want)
			}
		})
	}
}
