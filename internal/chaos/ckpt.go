// Checkpoint-mode chaos (DESIGN §13): the same seeded fault gauntlet,
// but driven through the CLI so every state-mutating action — arming
// the watchdog, generating the plan, each continue, each token-surgery
// recovery — is a journaled command a rebuilt stack can replay. The
// run is checkpointed between rounds, killed (full stack teardown) at
// a seeded random round, restored from the last checkpoint with replay
// verification, and must finish with the final status, fault trace and
// complete state blob byte-identical to an uninterrupted run.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/fault"
	"dfdbg/internal/stack"
)

// ckptRecipe is the checkpoint gauntlet's world: the chaos world with
// an obs ring, whose event stream is part of the verified state.
func ckptRecipe(o Options) stack.Recipe {
	r := o.recipe()
	r.Ring = 1 << 14
	return r
}

// runJournaled drives one CLI-journaled gauntlet. killAt > 0 tears the
// whole stack down at the start of that round and restores from the
// last checkpoint (rebuild + replay + byte-verification); 0 runs
// uninterrupted. Returns the verdict, the final state blob, and how
// many restores happened.
func runJournaled(seed int64, o Options, killAt int) (*Result, []byte, error) {
	sess := stack.NewSession(ckptRecipe(o))
	sess.Manager().Limit = 4
	if err := sess.Boot(nil); err != nil {
		return nil, nil, err
	}
	defer sess.Close()

	res := &Result{Seed: seed, FinalStatus: "gave-up"}
	res.Plan = fault.Generate(seed, sess.Live().RT.FaultTargets())
	if r := sess.Exec(fmt.Sprintf("watchdog %d", uint64(o.Watchdog))); r.Err != nil {
		return res, nil, r.Err
	}
	if r := sess.Exec(fmt.Sprintf("fault gen %d", seed)); r.Err != nil {
		return res, nil, r.Err
	}
	if _, err := sess.Checkpoint("boot"); err != nil {
		return res, nil, err
	}

	finish := func(status string) (*Result, []byte, error) {
		res.FinalStatus = status
		st := sess.Live()
		if inj := st.K.Faults(); inj != nil {
			res.Trace = inj.TraceStrings()
		}
		state, err := st.CaptureState()
		return res, state, err
	}

	// Rounds re-executed after a restore count again, so the loop bound
	// gets headroom for the replayed tail.
	for res.Rounds = 1; res.Rounds <= o.Rounds+ckptEveryRounds; res.Rounds++ {
		if res.Rounds == killAt {
			sess.Close()
			if _, err := sess.Restore(0); err != nil {
				return res, nil, fmt.Errorf("restore after kill at round %d: %w", killAt, err)
			}
			sess.Adopt(nil)
			res.Restores++
		}
		r := sess.Exec("continue")
		if r.Err != nil {
			return res, nil, fmt.Errorf("round %d: %v", res.Rounds, r.Err)
		}
		switch {
		case r.Stop == nil || r.Stop.Done:
			return finish("completed")
		case r.Stop.Crash != nil:
			res.Crashes++
			return finish("crashed-contained")
		case r.Stop.Stalled || r.Stop.Deadlock:
			res.Stalls++
			if u := sess.Exec("unstick apply"); u.Err != nil {
				return res, nil, fmt.Errorf("round %d: unstick: %v", res.Rounds, u.Err)
			}
			res.Unsticks++
		}
		if res.Rounds%ckptEveryRounds == 0 {
			if _, err := sess.Checkpoint("auto"); err != nil {
				return res, nil, err
			}
		}
	}
	return res, nil, fmt.Errorf("seed %d: gave up after %d rounds (%d stalls)", seed, res.Rounds-1, res.Stalls)
}

// ckptEveryRounds is the checkpoint cadence of the journaled gauntlet.
const ckptEveryRounds = 2

// RunCheckpoint executes seed's gauntlet twice — once uninterrupted and
// once killed at a seeded random round, restored, and replay-verified —
// and fails unless final status, fault trace, and the complete state
// blob agree byte-for-byte.
func RunCheckpoint(seed int64, o Options) (*Result, error) {
	o = o.withDefaults()
	ref, refState, err := runJournaled(seed, o, 0)
	if err != nil {
		return nil, fmt.Errorf("seed %d (reference): %w", seed, err)
	}
	killAt := 1 + int(rand.New(rand.NewSource(seed)).Int63n(int64(ref.Rounds)))
	got, gotState, err := runJournaled(seed, o, killAt)
	if err != nil {
		return nil, fmt.Errorf("seed %d (killed at round %d): %w", seed, killAt, err)
	}
	if got.Restores != 1 {
		return nil, fmt.Errorf("seed %d: %d restores, want exactly 1 (kill at round %d of %d)",
			seed, got.Restores, killAt, ref.Rounds)
	}
	if got.FinalStatus != ref.FinalStatus {
		return nil, fmt.Errorf("seed %d: interrupted run ended %q, uninterrupted %q",
			seed, got.FinalStatus, ref.FinalStatus)
	}
	if strings.Join(got.Trace, "\n") != strings.Join(ref.Trace, "\n") {
		return nil, fmt.Errorf("seed %d: fault trace diverged after kill/restore:\n--- uninterrupted\n%s\n--- restored\n%s",
			seed, strings.Join(ref.Trace, "\n"), strings.Join(got.Trace, "\n"))
	}
	if !bytes.Equal(gotState, refState) {
		return nil, fmt.Errorf("seed %d: final state diverged after kill/restore: %v",
			seed, ckpt.Diff(refState, gotState))
	}
	return got, nil
}
