package ckpt

import (
	"bytes"
	"reflect"
	"runtime/metrics"
	"testing"
)

// heapAllocated returns the bytes allocated on the heap since the
// process started.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// FuzzCheckpointDecode feeds arbitrary bytes to both checkpoint
// decoders: Decode reads them as a whole container and Receive as one
// streamed frame. Neither may panic. A container Decode accepts must
// re-encode to one that decodes to the same checkpoint. And together
// they may allocate only a bounded multiple of the input: a length
// prefix, up to the frame cap, must not reserve memory the stream never
// delivers. The seed corpus holds a valid container, a valid frame, a
// truncated container and a frame claiming nearly the cap.
func FuzzCheckpointDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		before := heapAllocated()
		c, err := Decode(data)
		_, _ = Receive(bytes.NewReader(data))
		if got, limit := heapAllocated()-before, uint64(1<<20+64*len(data)); got > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := Decode(c.Encode())
		if err != nil {
			t.Fatalf("re-encoded container does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", c, again)
		}
	})
}
