package ckpt_test

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/h264"
	"dfdbg/internal/stack"
)

// recipe is the birth world the manager replays journals over: the
// H.264 case study with an observer installed.
var recipe = stack.Recipe{Params: h264.Params{W: 16, H: 16, QP: 8, Seed: 7}, Ring: 1 << 14}

// run dispatches a line on the stack and journals it on success,
// applying the journal-after-success policy.
func run(t *testing.T, m *ckpt.Manager, st ckpt.Target, line string) {
	t.Helper()
	res := st.(*stack.Stack).CLI.Dispatch(line)
	if res.Err != nil {
		t.Fatalf("%q: %v", line, res.Err)
	}
	if ckpt.Journaled(line) {
		m.Note(line)
	}
}

func capture(t *testing.T, m *ckpt.Manager, st ckpt.Target, label string) *ckpt.Checkpoint {
	t.Helper()
	cp, err := m.Capture(st, label, uint64(st.(*stack.Stack).K.Now()), 0)
	if err != nil {
		t.Fatalf("capture %q: %v", label, err)
	}
	return cp
}

func TestRestoreReplayVerified(t *testing.T) {
	m := ckpt.NewManager(recipe.Target)
	st, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Shutdown() }()

	run(t, m, st, "filter pipe catch work")
	run(t, m, st, "continue")
	run(t, m, st, "continue")
	mid := capture(t, m, st, "mid")

	run(t, m, st, "continue")
	run(t, m, st, "continue")
	late := capture(t, m, st, "late")

	// Restore the mid checkpoint: rebuild + journal replay + verify.
	nst, err := m.Restore(mid)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	st.Shutdown()
	st = nst
	if got := m.JournalLen(); got != len(mid.Journal) {
		t.Fatalf("journal len after restore = %d, want %d", got, len(mid.Journal))
	}

	// The restored world must deterministically reproduce the original
	// future: two more continues land exactly on the late state.
	run(t, m, st, "continue")
	run(t, m, st, "continue")
	state, err := st.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, late.State) {
		t.Fatalf("replayed future diverged from the original: %v", ckpt.Diff(late.State, state))
	}
}

func TestRestoreDetectsDivergence(t *testing.T) {
	m := ckpt.NewManager(recipe.Target)
	st, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Shutdown() }()

	run(t, m, st, "filter pipe catch work")
	run(t, m, st, "continue")
	cp := capture(t, m, st, "good")

	// Tamper with the captured evidence: verification must fail loudly.
	tampered := *cp
	tampered.State = append([]byte(nil), cp.State...)
	tampered.State[len(tampered.State)/2] ^= 0x40
	if _, err := m.Restore(&tampered); err == nil {
		t.Fatal("restore of a tampered checkpoint verified cleanly")
	} else {
		var de *ckpt.DivergenceError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want DivergenceError", err)
		}
		if de.Chunk == "" {
			t.Fatalf("divergence does not name a chunk: %v", de)
		}
	}
}

func TestReverseStep(t *testing.T) {
	m := ckpt.NewManager(recipe.Target)
	st, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Shutdown() }()

	run(t, m, st, "filter pipe catch work")
	run(t, m, st, "continue")
	one := capture(t, m, st, "after-one")
	run(t, m, st, "continue")

	// reverse-step undoes the second continue; the rebuilt world must
	// byte-match the checkpoint taken after the first.
	nst, err := m.ReverseStep()
	if err != nil {
		t.Fatalf("reverse-step: %v", err)
	}
	st.Shutdown()
	st = nst
	state, err := st.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, one.State) {
		t.Fatalf("reverse-step state diverged: %v", ckpt.Diff(one.State, state))
	}
	if m.JournalLen() != len(one.Journal) {
		t.Fatalf("journal len = %d, want %d", m.JournalLen(), len(one.Journal))
	}
}

func TestReverseContinue(t *testing.T) {
	m := ckpt.NewManager(recipe.Target)
	st, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Shutdown() }()

	run(t, m, st, "filter pipe catch work")
	run(t, m, st, "continue")
	cp := capture(t, m, st, "anchor")
	run(t, m, st, "continue")
	run(t, m, st, "continue")

	nst, err := m.ReverseContinue()
	if err != nil {
		t.Fatalf("reverse-continue: %v", err)
	}
	st.Shutdown()
	st = nst
	state, err := st.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, cp.State) {
		t.Fatalf("reverse-continue state diverged: %v", ckpt.Diff(cp.State, state))
	}
}

func TestContainerRoundTrip(t *testing.T) {
	cp := &ckpt.Checkpoint{
		ID: 3, Label: "x", TimeNS: 12345, Wall: 99,
		Journal: []ckpt.Entry{{Line: "continue", Ctl: true}, {Line: "fault add drop link a::b @ 1"}},
		State:   []byte{1, 2, 3, 4, 5},
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != cp.ID || got.Label != cp.Label || got.TimeNS != cp.TimeNS || got.Wall != cp.Wall {
		t.Fatalf("meta round trip: %+v", got)
	}
	if len(got.Journal) != 2 || got.Journal[0] != cp.Journal[0] || got.Journal[1] != cp.Journal[1] {
		t.Fatalf("journal round trip: %+v", got.Journal)
	}
	if !bytes.Equal(got.State, cp.State) {
		t.Fatalf("state round trip: %v", got.State)
	}

	// Flip one state byte: the section checksum must catch it.
	enc := cp.Encode()
	enc[len(enc)-6] ^= 0x01
	if _, err := ckpt.Decode(enc); err == nil {
		t.Fatal("decode of a corrupted container succeeded")
	}
}

func TestJournalClassification(t *testing.T) {
	cases := []struct {
		line      string
		journaled bool
		ctl       bool
	}{
		{"continue", true, true},
		{"s", true, true},
		{"break decode_mb", true, false},
		{"fault add panic filter pipe @ 3", true, false},
		{"fault disarm panic filter pipe @ 3", true, false},
		{"set data-breakpoints on", true, false},
		{"info filters", false, false},
		{"print x", false, false},
		{"checkpoint save-me", false, false},
		{"restore 3", false, false},
		{"reverse-step", false, false},
		{"", false, false},
	}
	for _, tc := range cases {
		if got := ckpt.Journaled(tc.line); got != tc.journaled {
			t.Errorf("Journaled(%q) = %v, want %v", tc.line, got, tc.journaled)
		}
		if got := ckpt.Ctl(tc.line); got != tc.ctl {
			t.Errorf("Ctl(%q) = %v, want %v", tc.line, got, tc.ctl)
		}
	}
}

// Every verb the journal classifies is one the CLI accepts: a listed
// word Execute rejects as unknown can never reach the journal, so the
// list has drifted from the command set.
func TestVerbListsNameRealVerbs(t *testing.T) {
	st, err := recipe.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown()
	var verbs []string
	for _, m := range []map[string]bool{ckpt.ReadOnlyVerbs, ckpt.CtlVerbs} {
		for v := range m {
			if v != "" {
				verbs = append(verbs, v)
			}
		}
	}
	sort.Strings(verbs)
	for _, v := range verbs {
		if res := st.CLI.Dispatch(v); res.Err != nil && strings.HasPrefix(res.Err.Error(), "unknown command") {
			t.Errorf("verb list names %q, which the CLI rejects: %v", v, res.Err)
		}
	}
}
