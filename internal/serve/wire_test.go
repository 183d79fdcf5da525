package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"dfdbg/internal/obs"
)

// A reply the peer wrote before it closed the connection must reach
// the caller: the router counts a session lost when an export's reply
// loses the race against the close.
func TestResponseBeatsClose(t *testing.T) {
	for i := 0; i < 1000; i++ {
		local, remote := net.Pipe()
		c := NewClient(local, nil, nil)
		go func() {
			defer remote.Close()
			var req Request
			if json.NewDecoder(remote).Decode(&req) != nil {
				return
			}
			b, _ := json.Marshal(Response{ID: req.ID, OK: true, Session: req.Session})
			remote.Write(append(b, '\n'))
		}()
		resp, err := c.RoundTrip(Request{Op: "export", Session: "s1"}, 10*time.Second)
		if err != nil || !resp.OK {
			t.Fatalf("round %d: reply lost to the close: %+v, %v", i, resp, err)
		}
		c.Close(nil)
	}
}

// A round trip on a connection that drops fails fast with an error
// naming the op and the session, not after a deadline.
func TestRoundTripFailsOnDrop(t *testing.T) {
	local, remote := net.Pipe()
	c := NewClient(local, nil, nil)
	go func() {
		var req Request
		json.NewDecoder(remote).Decode(&req)
		remote.Close()
	}()
	start := time.Now()
	_, err := c.RoundTrip(Request{Op: "exec", Session: "r4"}, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "exec r4") {
		t.Fatalf("round trip on a dropped connection: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("drop noticed after %v", d)
	}
}

// fuzzLineCap stands in for maxLine so the fuzzer can reach the
// over-length path with small inputs.
const fuzzLineCap = 512

// FuzzWireRequest feeds arbitrary bytes to the server end as request
// lines. Whatever arrives, the endpoint must not panic, must greet
// first, and must answer each non-empty line before the first
// over-length one exactly once; an over-length line ends the connection
// with a goodbye naming the cap.
func FuzzWireRequest(f *testing.F) {
	f.Add([]byte(`{"id":1,"op":"ping"}`))
	f.Add(bytes.Repeat([]byte("x"), fuzzLineCap))
	f.Fuzz(func(t *testing.T, data []byte) {
		local, remote := net.Pipe()
		remote.SetDeadline(time.Now().Add(10 * time.Second))
		ep := NewEndpoint(local, 4, obs.NewRegistry().Counter("dropped", ""))
		ep.maxLine = fuzzLineCap
		served := make(chan struct{})
		go func() {
			defer close(served)
			ep.Serve("fuzz/1", func(req Request) { ep.Respond(Response{ID: req.ID, OK: true}) })
		}()
		// The sentinel request after the input marks where its responses
		// end.
		const sentinel = -7
		input := append(append([]byte(nil), data...), '\n')
		input = append(input, `{"id":-7,"op":"ping"}`+"\n"...)
		written := make(chan struct{})
		go func() {
			defer close(written)
			remote.Write(input)
		}()
		defer func() {
			remote.Close()
			<-served
			<-written
		}()

		// The scanner drops one trailing CR and skips empty lines; a line
		// of fuzzLineCap bytes or more ends the connection.
		want, overlong := 0, false
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) >= fuzzLineCap {
				overlong = true
				break
			}
			if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 {
				want++
			}
		}

		dec := json.NewDecoder(remote)
		var msg struct {
			ID     int64  `json:"id"`
			Event  string `json:"event"`
			Reason string `json:"reason"`
		}
		if err := dec.Decode(&msg); err != nil || msg.Event != "hello" {
			t.Fatalf("first message %+v (%v), want hello", msg, err)
		}
		for got := 0; ; {
			msg.ID, msg.Event, msg.Reason = 0, "", ""
			if err := dec.Decode(&msg); err != nil {
				t.Fatalf("stream ended after %d of %d responses (over-length %v): %v", got, want, overlong, err)
			}
			switch {
			case msg.Event == "goodbye":
				if !overlong || got != want || !strings.Contains(msg.Reason, strconv.Itoa(fuzzLineCap)) {
					t.Fatalf("goodbye %q after %d of %d responses (over-length %v)", msg.Reason, got, want, overlong)
				}
				return
			case msg.Event != "":
				t.Fatalf("unexpected event %+v", msg)
			case got == want:
				if overlong || msg.ID != sentinel {
					t.Fatalf("response %d has id %d, want the sentinel (over-length %v)", got+1, msg.ID, overlong)
				}
				return
			}
			got++
		}
	})
}
