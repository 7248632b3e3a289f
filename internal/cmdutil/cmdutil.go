// Package cmdutil holds the flag parsing the command-line programs
// share, so a flag means the same thing on every daemon.
package cmdutil

import (
	"fmt"
	"os"
	"strings"

	"scalla/internal/obs"
)

// ParseSink builds the summary sink a -summary target names:
// udp:host:port, tcp:host:port, or - for stdout.
func ParseSink(target string) (obs.Sink, error) {
	switch {
	case target == "-":
		return obs.NewWriterSink(os.Stdout), nil
	case strings.HasPrefix(target, "udp:"):
		return obs.NewUDPSink(strings.TrimPrefix(target, "udp:"))
	case strings.HasPrefix(target, "tcp:"):
		return obs.NewTCPSink(strings.TrimPrefix(target, "tcp:")), nil
	default:
		return nil, fmt.Errorf("bad -summary target %q (want udp:host:port, tcp:host:port, or -)", target)
	}
}

// SplitList splits a comma-separated flag value, trimming spaces and
// dropping empty items.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
