package stack_test

import (
	"bytes"
	"testing"

	"dfdbg/internal/ckpt"
	"dfdbg/internal/stack"
)

// execSeeds are the CLI's verbs, alone and with argument words naming
// the served world's actors, interfaces, symbols and files.
var execSeeds = []string{
	"analyze", "backtrace", "batch", "break", "catchpoints", "checkpoint",
	"checkpoints", "continue", "delete", "disable", "drop", "enable",
	"fault", "filter", "finish", "graph", "help", "iface", "info",
	"inject", "list", "metrics", "module", "next", "peek", "print",
	"profile", "quit", "regions", "replace", "restore", "reverse-continue",
	"reverse-step", "set", "step", "step_both", "tbreak", "thread",
	"timeline", "trace", "unstick", "watch", "watchdog", "web",

	"analyze json", "break MbFilter_work_function", "tbreak pipe.c:3",
	"watch IpfFilter_data_cnt", "delete 1", "delete catch 1", "disable catch 1",
	"print 1", "print $1", "list mb.c:1", "thread 2", "info filters",
	"info links", "info tokens", "info scheduling pred", "info breakpoints",
	"info threads", "info iface mb::Blk_in", "filter pipe catch work",
	"filter mb catch Blk_in=2,Izz_in=1", "filter red catch *out=3",
	"filter ipf catch scheduled", "filter ipred configure joiner",
	"filter bh info last_token", "filter bh info state",
	"filter mb print last_token", "filter ipf watch cnt", "filter red freeze",
	"filter red thaw", "module pred catch step end", "iface mb::Blk_in record",
	"iface mb::Blk_in norecord", "iface mb::Blk_in print",
	"iface red::bh_in catch 0", "step_both mb::Addr_in",
	"inject mb::Addr_in 3", "drop mb::Addr_in 0", "replace mb::Addr_in 0 7",
	"peek mb::Addr_in 0", "enable 1", "set data-breakpoints off",
	"trace 5", "trace balance", "trace activity", "metrics prom", "profile 3",
	"profile folded", "timeline export -", "timeline export /tmp/timeline.json",
	"web 127.0.0.1:0", "fault status", "fault list", "fault trace",
	"fault clear", "fault load /etc/hostname", "fault add drop link bh::stream_in @ 3",
	"fault gen 7", "fault disarm drop link bh::stream_in @ 3", "watchdog 2ms",
	"watchdog off", "unstick apply", "checkpoint before", "restore 1",
}

// FuzzSessionExec states the two claims journal-after-success rests on
// (DESIGN §13), on a fresh served world per input, against the world's
// captured state: a line that fails leaves the world unchanged, and so
// does a line ckpt.Journaled rejects. Replay runs only the journaled
// lines, so a line that broke either claim would make every restore of
// the session diverge.
func FuzzSessionExec(f *testing.F) {
	for _, line := range execSeeds {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		sess := stack.NewSession(servedRecipe)
		if err := sess.Boot(nil); err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		before := captured(t, sess.Live())
		res := sess.Exec(line)
		if res.Err == nil && ckpt.Journaled(line) {
			return
		}
		if after := captured(t, sess.Live()); !bytes.Equal(before, after) {
			if res.Err != nil {
				t.Errorf("%q failed (%v) but changed the world", line, res.Err)
			} else {
				t.Errorf("%q is not journaled but changed the world", line)
			}
		}
	})
}

func captured(t *testing.T, st *stack.Stack) []byte {
	t.Helper()
	b, err := st.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
