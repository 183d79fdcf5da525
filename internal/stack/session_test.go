package stack_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/obs"
	"dfdbg/internal/stack"
)

// owners are the worlds the program's session owners drive: a dfserve
// session's and the dfdbg REPL's.
var owners = []struct {
	name string
	r    stack.Recipe
}{
	{"served", servedRecipe},
	{"solo", soloRecipe},
}

// bootSession boots a session on r and closes it when the test ends.
func bootSession(t *testing.T, r stack.Recipe) *stack.Session {
	t.Helper()
	sess := stack.NewSession(r)
	if err := sess.Boot(nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess
}

func journalLines(sess *stack.Session) []string {
	var out []string
	for _, e := range sess.Manager().Journal() {
		out = append(out, e.Line)
	}
	return out
}

// marks returns the Arg of every event of kind k in st's ring.
func marks(st *stack.Stack, k obs.Kind) []int64 {
	var out []int64
	for _, ev := range st.Rec.Snapshot() {
		if ev.Kind == k {
			out = append(out, ev.Arg)
		}
	}
	return out
}

// TestSessionJournalsAfterSuccess pins the journal rule, once, on the
// driver every owner uses: a line is journaled only when it succeeded
// and mutates state. The checkpoint commands never enter the journal
// (a replayed `restore` would recurse); restore-class commands rewind
// it instead.
func TestSessionJournalsAfterSuccess(t *testing.T) {
	for _, o := range owners {
		for _, c := range []struct {
			name  string
			lines []string
			fails int // lines expected to fail, from the end
			want  []string
		}{
			{"mutating lines", []string{"filter pipe catch work", "continue"},
				0, []string{"filter pipe catch work", "continue"}},
			{"a line that errors", []string{"filter nosuch catch work"}, 1, nil},
			{"an unknown verb", []string{"frobnicate"}, 1, nil},
			{"read-only verbs", []string{"info filters", "graph", "metrics", "trace"}, 0, nil},
			{"checkpoint verbs", []string{"continue", "checkpoint a", "checkpoints", "restore", "reverse-continue"},
				0, []string{"continue"}},
			{"reverse-step rewinds", []string{"filter pipe catch work", "continue", "continue", "reverse-step"},
				0, []string{"filter pipe catch work", "continue"}},
			{"a failed restore", []string{"continue", "restore 99"}, 1, []string{"continue"}},
		} {
			t.Run(o.name+"/"+c.name, func(t *testing.T) {
				sess := bootSession(t, o.r)
				if _, err := sess.Checkpoint("boot"); err != nil {
					t.Fatal(err)
				}
				for i, line := range c.lines {
					res := sess.Exec(line)
					if fail := i >= len(c.lines)-c.fails; (res.Err != nil) != fail {
						t.Fatalf("%q: err %v, want failure %v", line, res.Err, fail)
					}
					sess.Adopt(nil)
				}
				if got := journalLines(sess); strings.Join(got, "|") != strings.Join(c.want, "|") {
					t.Errorf("journal %q, want %q", got, c.want)
				}
			})
		}
	}
}

// TestSessionAdoptsAfterReply: a restore-class command's reply comes
// from the old world, the rebuilt world goes live only on Adopt, the
// retired world is shut down then and not before, and the next line
// runs on the new world.
func TestSessionAdoptsAfterReply(t *testing.T) {
	for _, o := range owners {
		for _, line := range []string{"reverse-step", "restore", "reverse-continue"} {
			t.Run(o.name+"/"+line, func(t *testing.T) {
				sess := bootSession(t, o.r)
				if _, err := sess.Checkpoint("boot"); err != nil {
					t.Fatal(err)
				}
				for _, l := range []string{"filter pipe catch work", "continue"} {
					if res := sess.Exec(l); res.Err != nil {
						t.Fatalf("%q: %v", l, res.Err)
					}
				}
				old := sess.Live()
				at := old.K.Now()
				res := sess.Exec(line)
				if res.Err != nil || res.Output == "" {
					t.Fatalf("%q: output %q, err %v", line, res.Output, res.Err)
				}
				if sess.Live() != old || old.Rec.Cap() == 0 {
					t.Fatal("the old world was retired before the reply was delivered")
				}
				var attached *stack.Stack
				adopted := sess.Adopt(func(ns *stack.Stack) {
					attached = ns
					if old.Rec.Cap() == 0 {
						t.Error("the old world was shut down before the owner repointed its views")
					}
				})
				ns := sess.Live()
				if !adopted || ns == old || attached != ns {
					t.Fatalf("Adopt: adopted %v, new world %p, attached %p, old %p", adopted, ns, attached, old)
				}
				if old.Rec.Cap() != 0 {
					t.Error("Adopt left the retired world up")
				}
				if ns.K.Now() >= at {
					t.Errorf("the rebuilt world is at t=%d, want before the undone continue (t=%d)", ns.K.Now(), at)
				}
				if sess.Adopt(nil) {
					t.Error("a second Adopt found another staged world")
				}
				if res := sess.Exec("continue"); res.Err != nil || ns.K.Now() <= 0 {
					t.Fatalf("continue on the new world: %v at t=%d", res.Err, ns.K.Now())
				}
				if old.K.Now() != at {
					t.Error("a line ran on the retired world")
				}
				sess.Close()
				if ns.Rec.Cap() != 0 || sess.Live() != nil {
					t.Error("Close left the live world up")
				}
			})
		}
	}
}

// TestSessionMarks: every owner's world carries a KCheckpoint mark per
// capture and a KRestore mark once restored, and neither moves the
// captured state.
func TestSessionMarks(t *testing.T) {
	for _, o := range owners {
		t.Run(o.name, func(t *testing.T) {
			sess := bootSession(t, o.r)
			st := sess.Live()
			before, err := st.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			cp, err := sess.Checkpoint("boot")
			if err != nil {
				t.Fatal(err)
			}
			if res := sess.Exec("checkpoint again"); res.Err != nil {
				t.Fatal(res.Err)
			}
			if got := marks(st, obs.KCheckpoint); len(got) != 2 || got[0] != int64(cp.ID) || got[1] != int64(cp.ID+1) {
				t.Errorf("checkpoint marks %v, want [%d %d]", got, cp.ID, cp.ID+1)
			}
			after, err := st.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("the checkpoint marks moved the captured state: %v", ckpt.Diff(before, after))
			}
			if res := sess.Exec(fmt.Sprintf("restore %d", cp.ID)); res.Err != nil {
				t.Fatal(res.Err)
			}
			sess.Adopt(nil)
			if got := marks(sess.Live(), obs.KRestore); len(got) != 1 || got[0] != int64(cp.ID) {
				t.Errorf("restore marks %v, want [%d]", got, cp.ID)
			}
			if res := sess.Exec("continue"); res.Err != nil {
				t.Fatal(res.Err)
			}
			if res := sess.Exec("reverse-step"); res.Err != nil {
				t.Fatal(res.Err)
			}
			sess.Adopt(nil)
			if got := marks(sess.Live(), obs.KRestore); len(got) != 1 || got[0] != 0 {
				t.Errorf("reverse-step marks %v, want [0]", got)
			}
		})
	}
}

// TestSessionBootsFromContainer: a session booted from another's
// checkpoint (a migrated-in container) resumes its journal, keeps the
// container as its recovery floor and is marked as restored.
func TestSessionBootsFromContainer(t *testing.T) {
	src := bootSession(t, servedRecipe)
	for _, line := range []string{"filter pipe catch work", "continue"} {
		if res := src.Exec(line); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	cp, err := src.Checkpoint("migrate")
	if err != nil {
		t.Fatal(err)
	}
	cp, err = ckpt.Decode(cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	dst := stack.NewSession(servedRecipe)
	if err := dst.Boot(cp); err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if got := journalLines(dst); strings.Join(got, "|") != "filter pipe catch work|continue" {
		t.Errorf("adopted journal %q", got)
	}
	if l := dst.Manager().Latest(); l == nil || l.ID != cp.ID {
		t.Errorf("recovery floor %+v, want the container #%d", l, cp.ID)
	}
	if got := marks(dst.Live(), obs.KRestore); len(got) != 1 || got[0] != int64(cp.ID) {
		t.Errorf("restore marks %v, want [%d]", got, cp.ID)
	}
}

// The checkpoint commands answer with the same errors on every owner.
func TestSessionCheckpointErrors(t *testing.T) {
	sess := bootSession(t, servedRecipe)
	for line, want := range map[string]string{
		"restore 3":        "no such checkpoint (see `checkpoints')",
		"reverse-continue": "no checkpoint to reverse-continue to",
		"reverse-step":     "nothing to reverse",
	} {
		if res := sess.Exec(line); res.Err == nil || !strings.Contains(res.Err.Error(), want) {
			t.Errorf("%q: err %v, want %q", line, res.Err, want)
		}
		if sess.Adopt(nil) {
			t.Errorf("%q staged a world", line)
		}
	}
}
