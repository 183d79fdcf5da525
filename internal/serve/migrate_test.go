package serve

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dfdbg/internal/ckpt"
)

// migScript is a deterministic command sequence split across the
// migration boundary: the first half runs on the source worker, the
// second on the destination after import.
var migScript = struct{ before, after []string }{
	before: []string{
		"filter pipe catch work",
		"continue",
		"watchdog 250000",
	},
	after: []string{
		"delete catch 1",
		"continue",
		"info links",
	},
}

// TestExportImportByteIdentical is the migration acceptance path: a
// session exported mid-script from one worker and imported on another
// finishes the script with state byte-identical to a session that never
// moved. The source copy must be gone after export (at most one live
// instance), and subscribers must see the "migrated" close.
func TestExportImportByteIdentical(t *testing.T) {
	params := SessionParams{W: 16, H: 16, QP: 8, Seed: 7, Bug: "bad-dc"}

	src := NewManager(4, 0)
	src.SetName("w1")
	dst := NewManager(4, 0)
	dst.SetName("w2")
	solo := NewManager(4, 0)
	defer src.CloseAll()
	defer dst.CloseAll()
	defer solo.CloseAll()

	moved, err := src.CreateWithID("fleet-s1", params)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ref, err := solo.Create(params)
	if err != nil {
		t.Fatalf("create ref: %v", err)
	}
	for _, line := range migScript.before {
		mustExec(t, moved, line)
		mustExec(t, ref, line)
	}

	sub := &chanSub{ch: make(chan Event, 64)}
	moved.Subscribe(sub)
	gotParams, container, err := moved.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if gotParams != params {
		t.Errorf("export params = %+v, want %+v", gotParams, params)
	}
	if len(container) == 0 {
		t.Fatal("export: empty container")
	}
	ev := waitFor(t, sub.ch, "session-closed")
	if ev.Reason != "migrated" {
		t.Errorf("close reason = %q, want migrated", ev.Reason)
	}
	if _, err := src.Get("fleet-s1"); !errors.Is(err, ErrNoSession) {
		t.Errorf("source copy still alive after export: %v", err)
	}

	revived, err := dst.Import("fleet-s1", gotParams, container)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if revived.ID != "fleet-s1" {
		t.Errorf("imported id = %q, want fleet-s1", revived.ID)
	}
	for _, line := range migScript.after {
		mustExec(t, revived, line)
		mustExec(t, ref, line)
	}

	got := finalState(t, revived)
	want := finalState(t, ref)
	if err := ckpt.Diff(want, got); err != nil {
		t.Fatalf("migrated state diverges from solo run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("migrated state not byte-identical to solo run")
	}
}

// TestExportImportAfterBatchedContinue: a session whose journal holds a
// continue that ran batched (nothing armed) exports, and the import's
// replay reproduces the container byte for byte and matches a session
// that never moved.
func TestExportImportAfterBatchedContinue(t *testing.T) {
	src := NewManager(2, 0)
	dst := NewManager(2, 0)
	defer src.CloseAll()
	defer dst.CloseAll()
	script := []string{"filter pipe catch work", "continue", "delete catch 1", "continue"}
	moved, err := src.CreateWithID("batched", *tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := src.Create(*tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range script {
		mustExec(t, moved, line)
		mustExec(t, ref, line)
	}
	res, err := moved.Exec("batch")
	if err != nil || res.Err != nil || strings.Contains(res.Output, "per-token") {
		t.Fatalf("regions not batched after `delete catch 1`: %v %v\n%s", err, res.Err, res.Output)
	}
	params, container, err := moved.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	revived, err := dst.Import("batched", params, container)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if got, want := finalState(t, revived), finalState(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("imported state differs from a session that never moved: %v", ckpt.Diff(want, got))
	}
}

// TestImportRejectsTamperedContainer proves the byte-compare guarantee:
// an import whose replayed world does not reproduce the container's
// state blob fails with a DivergenceError instead of resuming a
// different world.
func TestImportRejectsTamperedContainer(t *testing.T) {
	mgr := NewManager(4, 0)
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	mustExec(t, s, "continue")
	_, container, err := s.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}

	cp, err := ckpt.Decode(container)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	cp.State[len(cp.State)/2] ^= 0x01
	tampered := cp.Encode()

	if _, err := mgr.Import("ghost", SessionParams{}, tampered); err == nil {
		t.Fatal("import of tampered container succeeded")
	} else {
		var de *ckpt.DivergenceError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want DivergenceError", err)
		}
	}
	if _, err := mgr.Get("ghost"); !errors.Is(err, ErrNoSession) {
		t.Errorf("failed import left a session behind: %v", err)
	}
}

// TestDrainRefusesAdmission: a draining worker admits nothing — not new
// sessions, not migrated-in containers — while existing sessions keep
// serving and exporting.
func TestDrainRefusesAdmission(t *testing.T) {
	mgr := NewManager(4, 0)
	mgr.SetName("w1")
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	_, container, err := s.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}

	mgr.StartDrain()
	if !mgr.Draining() {
		t.Fatal("Draining() = false after StartDrain")
	}
	if _, err := mgr.Create(SessionParams{}); !errors.Is(err, ErrDraining) {
		t.Errorf("create while draining: err = %v, want ErrDraining", err)
	}
	if _, err := mgr.Import("w1-s1", SessionParams{}, container); !errors.Is(err, ErrDraining) {
		t.Errorf("import while draining: err = %v, want ErrDraining", err)
	}
}

// TestCreateWithIDDuplicate: explicit ids are pinned, and a taken id is
// an error rather than a silent rename (the router's placement table
// depends on ids being stable).
func TestCreateWithIDDuplicate(t *testing.T) {
	mgr := NewManager(4, 0)
	defer mgr.CloseAll()
	if _, err := mgr.CreateWithID("pinned", SessionParams{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := mgr.CreateWithID("pinned", SessionParams{}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id: err = %v, want ErrDuplicateID", err)
	}
}

// TestWorkerNamePrefixesIDs: two named workers can never mint the same
// generated session id.
func TestWorkerNamePrefixesIDs(t *testing.T) {
	mgr := NewManager(4, 0)
	mgr.SetName("w7")
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if s.ID != "w7-s1" {
		t.Errorf("generated id = %q, want w7-s1", s.ID)
	}
}

// TestReapDecidesOnSessionGoroutine is the regression test for the
// reap/checkpoint race: the busy/lastUsed atomics flicker idle for an
// instant between a command finishing and the supervisor journaling it,
// so a reaper keying off the atomics alone could tear a session down
// between an auto-checkpoint and its journal write. The reap decision
// now runs on the session goroutine at a command boundary. With a 1ns
// idle timeout the gap between two Exec calls is such a boundary, so
// the session may be reaped at any of them; what must hold is that
// every acknowledged command reached the journal and nothing runs on
// the session once it reported closed.
func TestReapDecidesOnSessionGoroutine(t *testing.T) {
	mgr := NewManager(4, time.Nanosecond)
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				mgr.ReapIdle()
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	acked, closed := 0, false
	for i := 0; i < 30; i++ {
		res, err := s.Exec("watchdog 1000000")
		switch {
		case errors.Is(err, ErrSessionClosed):
			closed = true
		case err != nil:
			t.Fatalf("round %d: %v", i, err)
		case closed:
			t.Fatalf("round %d: Exec succeeded after the session reported closed", i)
		case res.Err != nil:
			t.Fatalf("round %d: %v", i, res.Err)
		default:
			acked++
		}
	}
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("idle session not reaped within 10s")
	}
	if r := s.reason(); r != "idle-timeout" {
		t.Errorf("close reason = %q, want idle-timeout", r)
	}
	// The session goroutine has exited, so its journal is settled.
	if got := s.sup.sess.Manager().JournalLen(); got < acked {
		t.Errorf("journal holds %d entries, %d commands acknowledged (acknowledged commands lost)", got, acked)
	}
}

// TestReapStillReapsIdleSessions: the on-goroutine verdict must not
// break the reaper's actual job.
func TestReapStillReapsIdleSessions(t *testing.T) {
	mgr := NewManager(4, 20*time.Millisecond)
	defer mgr.CloseAll()
	s, err := mgr.Create(SessionParams{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	sub := &chanSub{ch: make(chan Event, 16)}
	s.Subscribe(sub)
	deadline := time.After(30 * time.Second)
	for mgr.ReapIdle() == 0 {
		select {
		case <-deadline:
			t.Fatal("idle session never reaped")
		case <-time.After(5 * time.Millisecond):
		}
	}
	ev := waitFor(t, sub.ch, "session-closed")
	if ev.Reason != "idle-timeout" {
		t.Errorf("close reason = %q, want idle-timeout", ev.Reason)
	}
}
