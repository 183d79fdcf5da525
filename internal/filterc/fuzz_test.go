package filterc

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

// addSourceSeeds adds every file matching the globs, relative to the
// repository root, to the fuzz corpus.
func addSourceSeeds(f *testing.F, globs ...string) {
	for _, g := range globs {
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
}

// FuzzFilterCParse feeds arbitrary source to the filterc front end:
// Parse, then Compile on every program Parse accepts. Neither may
// panic; bad source must come back as a parse error, and compile-time
// errors become opErr instructions. Together they may allocate only a
// bounded multiple of the input. The corpus is every filterc source
// checked into testdata/ and examples/*/adl.
func FuzzFilterCParse(f *testing.F) {
	addSourceSeeds(f, "testdata/*/*.c", "testdata/analysis/filterc/*.c", "examples/*/adl/*.c")
	f.Fuzz(func(t *testing.T, src string) {
		before := heapAllocated()
		prog, err := Parse("fuzz.c", src)
		if err == nil {
			Compile(prog)
		}
		if got, limit := heapAllocated()-before, uint64(1<<20+1024*len(src)); got > limit {
			t.Fatalf("parsing and compiling %d source bytes allocated %d bytes (limit %d)", len(src), got, limit)
		}
	})
}
