package cli

import (
	"fmt"
	"testing"

	"dfdbg/internal/core"
)

// The fmt-free `info filters` row must render byte for byte what the
// fmt format it replaced did: transcripts pin it.
func TestFilterInfoRowMatchesFmt(t *testing.T) {
	oracle := func(fi core.FilterInfo) string {
		blocked := ""
		if fi.BlockedOn != "" {
			blocked = "  blocked on " + fi.BlockedOn
		}
		line := ""
		if fi.Line > 0 {
			line = fmt.Sprintf("  line %d", fi.Line)
		}
		return fmt.Sprintf("%-10s %-16s %-14s firings=%-5d%s%s\n",
			fi.Kind, fi.Name, fi.State, fi.Firings, line, blocked)
	}
	names := []string{"", "pipe", "a_sixteen_chars_", "a_name_longer_than_sixteen", "héllo", "日本語フィルタ"}
	for _, name := range names {
		for _, firings := range []uint64{0, 7, 12345, 123456, 1 << 63} {
			for _, line := range []int{0, 1, 42} {
				for _, blocked := range []string{"", "pop:pipe_in", "push:ipf_out"} {
					fi := core.FilterInfo{
						Name: name, Kind: core.ActorKind(firings % 5), State: core.SchedState(line % 5),
						Firings: firings, Line: line, BlockedOn: blocked,
					}
					if got, want := string(appendFilterInfo(nil, fi)), oracle(fi); got != want {
						t.Fatalf("row = %q, fmt rendered %q", got, want)
					}
				}
			}
		}
	}
}
