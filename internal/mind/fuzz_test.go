package mind

import (
	"os"
	"path/filepath"
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

// FuzzADLParse feeds arbitrary source to the MIND ADL parser. It may
// not panic, bad source must come back as an error, and it may allocate
// only a bounded multiple of the input. The corpus is every ADL design
// checked into testdata/ and examples/*/adl.
func FuzzADLParse(f *testing.F) {
	for _, g := range []string{"testdata/*/*.adl", "examples/*/adl/*.adl"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", g))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		before := heapAllocated()
		file, err := Parse("fuzz.adl", src)
		if got, limit := heapAllocated()-before, uint64(1<<20+1024*len(src)); got > limit {
			t.Fatalf("parsing %d source bytes allocated %d bytes (limit %d)", len(src), got, limit)
		}
		if err == nil && file == nil {
			t.Fatal("Parse returned neither a file nor an error")
		}
	})
}
