package cli

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dfdbg/internal/core"
	"dfdbg/internal/dbginfo"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

var updateProvenance = flag.Bool("update-provenance", false,
	"rewrite testdata/provenance_store.golden from this tree")

// provenanceBehaviors configures every actor of the decode pipeline,
// so each token's path reaches back through every kind of behaviour.
var provenanceBehaviors = []string{
	"bh map", "hwcfg splitter", "red splitter", "pipe joiner",
	"ipred splitter", "ipf map", "mb joiner",
}

// provenanceStops is how many data events separate two stops.
const provenanceStops = 300

// TestProvenanceStoreDifferential decodes a four-frame 16x16 sequence
// with every interface recording into a 4-token history and every
// filter configured, stopping every few hundred data events. At each
// stop it renders each actor's `info last_token` path and `print
// last_token`, each interface's `iface print` history and `info iface`
// row, and `info links`. Each stop's transcript is pinned by digest in
// testdata/provenance_store.golden, which holds the first stop in full.
// A debugger that forgets a token some origin chain, history or
// in-flight list still reaches prints a different transcript.
func TestProvenanceStoreDifferential(t *testing.T) {
	c, out := provenanceSession(t)
	d := c.D
	for _, b := range provenanceBehaviors {
		exec(t, c, out, "filter "+strings.Replace(b, " ", " configure ", 1))
	}
	var ifaces []string
	for _, a := range d.Actors() {
		for _, conn := range append(append([]*core.Connection(nil), a.Inputs...), a.Outputs...) {
			conn.RecordCap = 4
			ifaces = append(ifaces, conn.Qualified())
			exec(t, c, out, "iface "+conn.Qualified()+" record")
		}
	}
	next := uint64(provenanceStops)
	d.CatchWhen("every few hundred events", func(d *core.Debugger) bool { return d.DataEvents >= next })

	var digests, first strings.Builder
	for stop := 1; ; stop++ {
		got := exec(t, c, out, "continue")
		if strings.Contains(got, "program finished") {
			fmt.Fprintf(&digests, "events %d\n", d.DataEvents)
			break
		}
		if !strings.Contains(got, "every few hundred events became true") {
			t.Fatalf("stop %d: %s", stop, got)
		}
		next = d.DataEvents + provenanceStops
		text := provenanceStop(c, out, ifaces)
		sum := sha256.Sum256([]byte(text))
		fmt.Fprintf(&digests, "stop %d %s\n", stop, hex.EncodeToString(sum[:8]))
		if stop == 1 {
			first.WriteString(text)
		}
	}
	got := digests.String() + "--- stop 1 ---\n" + first.String()
	const golden = "testdata/provenance_store.golden"
	if *updateProvenance {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs from %s at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// provenanceSession boots the 16x16 H.264 decode for four frames.
func provenanceSession(t *testing.T) (*CLI, *strings.Builder) {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := core.Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: 4}
	bits, err := h264.EncodeVideo(h264.GenerateVideo(p), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if st, err := k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
	}
	var out strings.Builder
	return New(d, &out), &out
}

// provenanceStop renders every token query of one stop.
func provenanceStop(c *CLI, out *strings.Builder, ifaces []string) string {
	var b strings.Builder
	run := func(cmd string) {
		start := out.Len()
		err := c.Execute(cmd)
		fmt.Fprintf(&b, "(gdb) %s\n%s", cmd, out.String()[start:])
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		}
	}
	run("info links")
	for _, a := range c.D.Actors() {
		if a.Kind != core.KindFilter && a.Kind != core.KindController {
			continue
		}
		run("filter " + a.Name + " info last_token")
		run("filter " + a.Name + " print last_token")
	}
	for _, q := range ifaces {
		run("iface " + q + " print")
		run("info iface " + q)
	}
	return b.String()
}
