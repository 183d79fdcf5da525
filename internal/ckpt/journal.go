package ckpt

import "strings"

// readOnlyVerbs are debugger commands that provably do not mutate
// kernel, runtime, or debugger state — inspection, rendering, and the
// checkpoint machinery itself. Everything else is journaled: replaying
// a read-only line would be harmless but bloats the journal, while
// failing to replay a mutating line breaks restore determinism, so the
// classification is a denylist and unknown verbs default to journaled.
var readOnlyVerbs = map[string]bool{
	"":          true,
	"help":      true,
	"quit":      true,
	"q":         true,
	"web":       true,
	"graph":     true,
	"metrics":   true,
	"profile":   true,
	"analyze":   true,
	"regions":   true,
	"timeline":  true,
	"trace":     true,
	"backtrace": true,
	"bt":        true,
	"info":      true,
	"list":      true,
	"l":         true,
	"print":     true,
	"p":         true,
	"peek":      true,

	// The checkpoint machinery itself must never enter the journal: a
	// replayed "restore" would recurse.
	"checkpoint":       true,
	"checkpoints":      true,
	"restore":          true,
	"reverse-step":     true,
	"reverse-continue": true,
}

// ctlVerbs are the control-flow commands that advance simulated time.
// Reverse execution is defined as undoing the most recent one.
var ctlVerbs = map[string]bool{
	"continue":  true,
	"c":         true,
	"step":      true,
	"s":         true,
	"next":      true,
	"n":         true,
	"finish":    true,
	"step_both": true,
}

func verb(line string) string {
	f := strings.Fields(line)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// Journaled reports whether a command line mutates session state and
// must therefore be recorded for replay.
func Journaled(line string) bool { return !readOnlyVerbs[verb(line)] }

// Ctl reports whether a command line is a control-flow command that
// advances simulated time.
func Ctl(line string) bool { return ctlVerbs[verb(line)] }
