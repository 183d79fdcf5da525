package h264

import (
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

// fuzzParams maps fuzzer-chosen bytes onto small sequence geometries:
// up to 32x32 pixels and 3 frames, with or without chroma. Geometries
// chroma cannot use are left for Validate to reject.
func fuzzParams(w, h, frames, qp uint8, chroma bool) Params {
	return Params{
		W: B * (1 + int(w%8)), H: B * (1 + int(h%8)),
		Frames: 1 + int(frames%3), QP: 1 + int(qp%32), Chroma: chroma,
	}
}

// FuzzH264Decode feeds arbitrary bitstreams to the reference decoder.
// It may not panic: a truncated, overlong or corrupt stream must come
// back as an error. A stream it accepts must yield whole planes of the
// requested geometry. And it may allocate only a bounded multiple of
// the input beyond the fixed frame buffers. The corpus is encoded
// sequences of the fuzzed geometries, whole and truncated.
func FuzzH264Decode(f *testing.F) {
	for _, s := range []struct {
		w, h, frames, qp uint8
		chroma           bool
	}{{3, 3, 0, 7, false}, {3, 1, 1, 3, true}, {7, 7, 2, 0, true}} {
		p := fuzzParams(s.w, s.h, s.frames, s.qp, s.chroma)
		bits, err := EncodeSequence(GenerateSequence(p), p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bits, s.w, s.h, s.frames, s.qp, s.chroma)
		f.Add(bits[:len(bits)/2], s.w, s.h, s.frames, s.qp, s.chroma)
	}
	f.Fuzz(func(t *testing.T, bits []byte, w, h, frames, qp uint8, chroma bool) {
		p := fuzzParams(w, h, frames, qp, chroma)
		before := heapAllocated()
		out, err := ReferenceDecodeSequence(bits, p)
		if got, limit := heapAllocated()-before, uint64(1<<20+64*len(bits)); got > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", len(bits), got, limit)
		}
		if err != nil {
			return
		}
		if len(out) != p.FrameCount() {
			t.Fatalf("decoded %d frames, want %d", len(out), p.FrameCount())
		}
		for i, fr := range out {
			if len(fr.Y) != p.W*p.H {
				t.Fatalf("frame %d: luma has %d pixels, want %d", i, len(fr.Y), p.W*p.H)
			}
			if p.Chroma && (len(fr.Cb) != p.W*p.H/4 || len(fr.Cr) != p.W*p.H/4) {
				t.Fatalf("frame %d: chroma planes have %d/%d pixels, want %d", i, len(fr.Cb), len(fr.Cr), p.W*p.H/4)
			}
		}
	})
}
