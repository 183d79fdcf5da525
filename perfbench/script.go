package main

import (
	"fmt"
	"strings"

	"dfdbg/internal/cli"
	"dfdbg/internal/serve"
)

// debugScript is the scripted interactive session of the debug
// workload: catchpoint stops walked with repeated `continue`, read-only
// queries between them, and two rewinds. The 8th journaled command is
// followed by an auto-checkpoint, so the first `reverse-step` restores
// that checkpoint with byte-compare verification; the second replays
// its journal from birth. The script is the same for every seed (the
// seed varies the frame content), so the mix of command classes the
// medians are taken over never changes.
var debugScript = []string{
	"info filters",
	"graph",
	"filter pipe catch work",
	"continue",
	"info threads",
	"continue",
	"filter pipe print last_token",
	"print $1",
	// `trace balance` prints links in map order, so it is only
	// deterministic once every link drained: it runs after the decode.
	"trace 20",
	"continue",
	"info links",
	"continue",
	"filter pipe print last_token",
	"print $1",
	"continue",
	"info filters",
	"continue",
	"reverse-step",
	"continue",
	"graph",
	"delete catch 1",
	"continue",
	"trace balance",
	"info links",
	"reverse-step",
	"info filters",
}

// fleetScript is the shorter script every fleet session runs.
var fleetScript = []string{
	"info filters",
	"filter pipe catch work",
	"continue",
	"continue",
	"filter pipe print last_token",
	"print $1",
	"continue",
	"info links",
	"reverse-step",
	"continue",
	"continue",
	"delete catch 1",
	"continue",
	"trace balance",
	"graph",
}

// sessionParams is the small decode every debug and fleet session runs.
// The content seed is kept nonzero: serve maps seed 0 to its default.
func sessionParams(seed int64) serve.SessionParams {
	return serve.SessionParams{W: 16, H: 16, QP: 8, Seed: seed + 1}
}

// render appends one command's result to a session transcript in the
// canonical form transcripts are compared in.
func render(b *strings.Builder, line, output, errText string, stop *cli.StopInfo) {
	fmt.Fprintf(b, ">>> %s\n%s", line, output)
	if errText != "" {
		fmt.Fprintf(b, "error: %s\n", errText)
	}
	if stop != nil {
		fmt.Fprintf(b, "[stop %s @%d]\n", stop.Reason, stop.TimeNS)
	}
}

// finished reports whether a transcript ran the decode to completion.
func finished(transcript string) bool {
	return strings.Contains(transcript, "[stop program finished")
}

// goldenTranscript runs script on a solo, unmigrated session of mgr and
// returns its transcript: the reference every debug and fleet session
// must match byte for byte. The session stays open.
func goldenTranscript(mgr *serve.Manager, p serve.SessionParams, script []string) (string, error) {
	s, err := mgr.Create(p)
	if err != nil {
		return "", fmt.Errorf("golden: %w", err)
	}
	var b strings.Builder
	for _, line := range script {
		res, err := s.Exec(line)
		if err != nil {
			return "", fmt.Errorf("golden %q: %w", line, err)
		}
		if res.Err != nil {
			return "", fmt.Errorf("golden %q refused: %v", line, res.Err)
		}
		render(&b, line, res.Output, "", res.Stop)
	}
	if !finished(b.String()) {
		return "", fmt.Errorf("golden: script never finished the decode")
	}
	return b.String(), nil
}
