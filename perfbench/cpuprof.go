package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The CPU table reads the gzipped profile.proto that runtime/pprof writes.
// Only the fields the table needs are decoded: samples (location ids and
// values), locations (their inlined line stacks), functions (names) and
// the string table.

// pkgShare is one row of the per-package CPU table. Flat counts samples
// whose innermost frame is in the package, so flat shares partition the
// samples; Cum counts samples with the package anywhere on the stack.
type pkgShare struct {
	Pkg     string  `json:"pkg"`
	Flat    int64   `json:"flat_samples"`
	Cum     int64   `json:"cum_samples"`
	FlatPct float64 `json:"flat_pct"`
	CumPct  float64 `json:"cum_pct"`
}

// cpuTable is the profile grouped by import path.
type cpuTable struct {
	Samples int64
	Rows    []pkgShare // by descending flat share
	// GCPct is the share of samples spent in garbage collection: any
	// frame in runtime.gc* (background marking and mutator assists) or
	// the background sweeper and scavenger.
	GCPct float64
}

// flatPct returns the package's flat share in percent (0 when absent).
func (t *cpuTable) flatPct(pkg string) float64 {
	for _, r := range t.Rows {
		if r.Pkg == pkg {
			return r.FlatPct
		}
	}
	return 0
}

// pkgOf extracts the import path from a Go symbol name such as
// "shogun/internal/sim.(*Pool).AcquireBatch" or
// "net/http.(*conn).serve". Receivers and type arguments may contain dots
// and slashes, so the path ends at the first dot after the last slash
// that precedes any '(' or '['.
func pkgOf(fn string) string {
	stop := len(fn)
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		stop = i
	}
	slash := strings.LastIndexByte(fn[:stop], '/')
	rest := fn[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// buildCPUTable decodes a gzipped CPU profile and groups its samples by
// package.
func buildCPUTable(gz []byte) (*cpuTable, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p.table(), nil
}

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return "?"
}

func (p *profile) table() *cpuTable {
	flat := map[string]int64{}
	cum := map[string]int64{}
	var total, gc int64
	for _, s := range p.samples {
		total += s.count
		seen := map[string]bool{}
		inGC := false
		for i, loc := range s.locs {
			for j, fid := range p.locs[loc] {
				name := p.funcName(fid)
				pkg := pkgOf(name)
				if i == 0 && j == 0 {
					flat[pkg] += s.count
				}
				if !seen[pkg] {
					seen[pkg] = true
					cum[pkg] += s.count
				}
				inGC = inGC || isGC(name)
			}
		}
		if len(s.locs) == 0 || len(p.locs[s.locs[0]]) == 0 {
			flat["?"] += s.count // no innermost frame to attribute it to
			if !seen["?"] {
				cum["?"] += s.count
			}
		}
		if inGC {
			gc += s.count
		}
	}
	t := &cpuTable{Samples: total}
	pct := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	for pkg, c := range cum {
		t.Rows = append(t.Rows, pkgShare{Pkg: pkg, Flat: flat[pkg], Cum: c, FlatPct: pct(flat[pkg]), CumPct: pct(c)})
	}
	sort.Slice(t.Rows, func(i, j int) bool {
		if t.Rows[i].Flat != t.Rows[j].Flat {
			return t.Rows[i].Flat > t.Rows[j].Flat
		}
		return t.Rows[i].Pkg < t.Rows[j].Pkg
	})
	t.GCPct = pct(gc)
	return t
}

// protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: its number, wire type, and either
// the varint value or the length-delimited payload.
type field struct {
	num  int
	wire int
	u    uint64
	b    []byte
}

// fields decodes a protobuf message into its top-level fields.
func fields(b []byte, visit func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.u, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case wire64:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", f.wire)
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, f field) ([]uint64, error) {
	if f.wire == wireVarint {
		return append(dst, f.u), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := fields(b, func(f field) error {
		switch f.num {
		case 2: // Sample
			var s profSample
			var vals []uint64
			err := fields(f.b, func(g field) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = varints(s.locs, g)
				case 2:
					vals, err = varints(vals, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fids []uint64
			err := fields(f.b, func(g field) error {
				switch g.num {
				case 1:
					id = g.u
				case 4: // Line
					return fields(g.b, func(h field) error {
						if h.num == 1 {
							fids = append(fids, h.u)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fids
		case 5: // Function
			var id uint64
			var name int64
			err := fields(f.b, func(g field) error {
				switch g.num {
				case 1:
					id = g.u
				case 2:
					name = int64(g.u)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
