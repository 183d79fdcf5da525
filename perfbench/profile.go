package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile is folded by the package of each
// sample's leaf frame. The profile is runtime/pprof's gzipped protobuf;
// the few fields the fold needs are decoded here by hand so the
// benchmark stays stdlib-only.

// cpuLayers are the layers CPU shares are reported for, in print order.
// Every sample lands in exactly one of them, so the shares sum to 1.
var cpuLayers = []string{
	"sim", "pedf", "filterc", "mach", "obs", "lowdbg", "core", "cli",
	"analysis", "ckpt", "serve", "router", "wire", "runtime", "other",
}

// layerOf maps a Go package path to its layer.
func layerOf(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "dfdbg/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		switch top {
		case "sim", "fault":
			return "sim"
		case "pedf", "h264", "mind":
			return "pedf"
		case "lowdbg", "dbginfo", "trace":
			return "lowdbg"
		case "filterc", "mach", "obs", "core", "cli", "analysis", "ckpt", "serve", "router":
			return top
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "sync" || pkg == "sync/atomic":
		return "runtime"
	case strings.HasPrefix(pkg, "encoding/") || pkg == "net" || pkg == "bufio" ||
		pkg == "syscall" || pkg == "internal/poll":
		return "wire"
	}
	return "other"
}

// funcPackage extracts the package path from a symbol name such as
// "dfdbg/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// foldProfile returns the share of CPU samples per layer (keys are
// cpuLayers; values sum to 1 when any sample was taken) and the sample
// count.
func foldProfile(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if loc, ok := p.locs[s.locs[0]]; ok && len(loc) > 0 {
			if fn, ok := p.funcs[loc[0]]; ok && fn >= 0 && int(fn) < len(p.strs) {
				name = p.strs[fn]
			}
		}
		counts[layerOf(funcPackage(name))] += s.values[0]
		total += s.values[0]
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, int(total), nil
}

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	samples []pbSample
	locs    map[uint64][]uint64 // location id -> function ids, leaf first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbFields decodes the top-level fields of one protobuf message.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarints appends the integers of a repeated scalar field, packed or not.
func uvarints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// parseProfile decodes the samples, locations, functions and string
// table of a profile.proto message.
func parseProfile(raw []byte) (*pbProfile, error) {
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	for _, f := range fields {
		switch f.num {
		case 2: // sample
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s pbSample
			var vals []uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					if s.locs, err = uvarints(s.locs, sf); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uvarints(vals, sf); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line: function_id = 1
					line, err := pbFields(lf.b)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.v)
						}
					}
				}
			}
			p.locs[id] = fns
		case 5: // function
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.b))
		}
	}
	return p, nil
}
