package main

import (
	"strings"

	"dfdbg/internal/ckpt"
)

// Command classes the latency metrics are split by. The split follows
// the program's own journal classifier, so a command counts as a
// control exactly when a session would replay it on restore.
const (
	classQuery   = "query"   // not journaled: inspection and rendering
	classControl = "control" // journaled: mutates session state
	classReverse = "reverse" // reverse-step / reverse-continue: verified restore
)

// classify returns the latency class of a debugger command line.
func classify(line string) string {
	v := verb(line)
	switch {
	case strings.HasPrefix(v, "reverse-"):
		return classReverse
	case ckpt.Journaled(line):
		return classControl
	default:
		return classQuery
	}
}

// verb is the first word of a command line ("" for a blank line).
func verb(line string) string {
	f := strings.Fields(line)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}
