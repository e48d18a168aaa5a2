package setops

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildBits packs list into a fresh bitset over [0, universe).
func buildBits(list []VertexID, universe int) []uint64 {
	bits := make([]uint64, BitsetWords(universe))
	BitsetFill(bits, list)
	return bits
}

func TestBitsetBasics(t *testing.T) {
	bits := make([]uint64, BitsetWords(200))
	BitsetAdd(bits, 0)
	BitsetAdd(bits, 63)
	BitsetAdd(bits, 64)
	BitsetAdd(bits, 199)
	for _, x := range []VertexID{0, 63, 64, 199} {
		if !BitsetHas(bits, x) {
			t.Errorf("BitsetHas(%d) = false after add", x)
		}
	}
	if BitsetHas(bits, 1) || BitsetHas(bits, 65) {
		t.Error("BitsetHas true for unset bit")
	}
	BitsetClearList(bits, set(63, 64))
	if BitsetHas(bits, 63) || BitsetHas(bits, 64) {
		t.Error("BitsetClearList left bits set")
	}
	if !BitsetHas(bits, 0) || !BitsetHas(bits, 199) {
		t.Error("BitsetClearList cleared unrelated bits")
	}
}

func TestBitmapKernelsBasic(t *testing.T) {
	a := set(1, 5, 64, 100, 150)
	b := set(5, 64, 99, 150, 151)
	bits := buildBits(b, 200)
	if got := IntersectBitmap(nil, a, bits); !equal(got, set(5, 64, 150)) {
		t.Errorf("IntersectBitmap = %v", got)
	}
	if got := IntersectCountBitmap(a, bits); got != 3 {
		t.Errorf("IntersectCountBitmap = %d", got)
	}
	if got := SubtractBitmap(nil, a, bits); !equal(got, set(1, 100)) {
		t.Errorf("SubtractBitmap = %v", got)
	}
	if got := SubtractCountBitmap(a, bits); got != 2 {
		t.Errorf("SubtractCountBitmap = %d", got)
	}
}

// fuzzSet decodes bytes into a strictly ascending list: each byte is a
// positive delta, giving dense and sparse shapes under fuzzer control.
func fuzzSet(data []byte, universe VertexID) []VertexID {
	var out []VertexID
	cur := VertexID(-1)
	for _, b := range data {
		cur += VertexID(b%37) + 1
		if cur >= universe {
			break
		}
		out = append(out, cur)
	}
	return out
}

// FuzzBitmapKernels is the differential fuzz test: every bitmap kernel
// and the adaptive dispatcher (over Bound-truncated operands too) must
// agree with the merge reference on arbitrary ascending inputs, for
// both materialized results and counts.
func FuzzBitmapKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 2, 4}, uint16(50))
	f.Add([]byte{}, []byte{1}, uint16(0))
	f.Add([]byte{36, 36, 36, 1, 1, 1, 1}, []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint16(1000))
	f.Add([]byte{5, 5, 5, 5}, []byte{}, uint16(7))
	f.Fuzz(func(t *testing.T, da, db []byte, rawLimit uint16) {
		const universe = 4096
		a := fuzzSet(da, universe)
		b := fuzzSet(db, universe)
		bits := buildBits(b, universe)
		limit := VertexID(rawLimit) % (universe + 1)

		wantI := Intersect(nil, a, b)
		wantS := Subtract(nil, a, b)

		if got := IntersectBitmap(nil, a, bits); !equal(got, wantI) {
			t.Fatalf("IntersectBitmap: %v want %v", got, wantI)
		}
		if got := IntersectCountBitmap(a, bits); got != len(wantI) {
			t.Fatalf("IntersectCountBitmap: %d want %d", got, len(wantI))
		}
		if got := SubtractBitmap(nil, a, bits); !equal(got, wantS) {
			t.Fatalf("SubtractBitmap: %v want %v", got, wantS)
		}
		if got := SubtractCountBitmap(a, bits); got != len(wantS) {
			t.Fatalf("SubtractCountBitmap: %d want %d", got, len(wantS))
		}

		wantIB := Bound(wantI, limit)
		wantSB := Bound(wantS, limit)

		// The dispatcher must agree for every combination of available
		// bitset views (none, one side, both, lazy).
		abits := buildBits(a, universe)
		combos := []struct {
			name string
			a, b Operand
		}{
			{"lists", Operand{List: a}, Operand{List: b}},
			{"bbits", Operand{List: a}, Operand{List: b, Bits: bits}},
			{"abits", Operand{List: a, Bits: abits}, Operand{List: b}},
			{"both", Operand{List: a, Bits: abits}, Operand{List: b, Bits: bits}},
			{"lazy", Operand{List: a}, Operand{List: b, LazyBits: func() []uint64 { return bits }}},
		}
		for _, c := range combos {
			var d Dispatcher
			if got := d.Intersect(nil, c.a, c.b); !equal(got, wantI) {
				t.Fatalf("Dispatcher.Intersect[%s]: %v want %v", c.name, got, wantI)
			}
			if got := d.Subtract(nil, c.a, c.b); !equal(got, wantS) {
				t.Fatalf("Dispatcher.Subtract[%s]: %v want %v", c.name, got, wantS)
			}
			ba, bb := bounded(c.a, limit), bounded(c.b, limit)
			if got := d.IntersectCount(ba, bb); got != len(wantIB) {
				t.Fatalf("Dispatcher.IntersectCount[%s](bounded %d): %d want %d", c.name, limit, got, len(wantIB))
			}
			if got := d.IntersectCount(c.a, c.b); got != len(wantI) {
				t.Fatalf("Dispatcher.IntersectCount[%s]: %d want %d", c.name, got, len(wantI))
			}
			if got := d.SubtractCount(ba, c.b); got != len(wantSB) {
				t.Fatalf("Dispatcher.SubtractCount[%s](bounded %d): %d want %d", c.name, limit, got, len(wantSB))
			}
			if got := d.SubtractCount(c.a, c.b); got != len(wantS) {
				t.Fatalf("Dispatcher.SubtractCount[%s]: %d want %d", c.name, got, len(wantS))
			}
		}
	})
}

// bounded truncates op's list to elements below limit and keeps its
// full-set bitset views, the form bounded counts hand the dispatcher.
func bounded(op Operand, limit VertexID) Operand {
	op.List = Bound(op.List, limit)
	return op
}

// TestDispatcherProperty drives the dispatcher over random skewed shapes
// via testing/quick, complementing the byte-driven fuzzer with larger
// cardinalities that exercise the gallop and bitmap cost crossovers.
func TestDispatcherProperty(t *testing.T) {
	f := func(seed int64, na, nb uint16, skew, hubA, hubB bool) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 2000
		bLen := int(nb % 600)
		if skew {
			bLen = int(nb%60) * 50 // force gallop-range imbalance
			universe = 20000
		}
		a := randSet(rng, int(na%300), universe)
		b := randSet(rng, bLen, universe)
		var oa, ob Operand
		oa.List, ob.List = a, b
		if hubA {
			oa.Bits = buildBits(a, universe)
		}
		if hubB {
			ob.Bits = buildBits(b, universe)
		}
		limit := VertexID(rng.Intn(universe + 1))

		var d Dispatcher
		wantI := Intersect(nil, a, b)
		wantS := Subtract(nil, a, b)
		return equal(d.Intersect(nil, oa, ob), wantI) &&
			equal(d.Subtract(nil, oa, ob), wantS) &&
			d.IntersectCount(bounded(oa, limit), bounded(ob, limit)) == len(Bound(wantI, limit)) &&
			d.SubtractCount(bounded(oa, limit), ob) == len(Bound(wantS, limit))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherPicksBitmapForHubOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := 8192
	small := randSet(rng, 200, universe)
	hub := randSet(rng, 4000, universe)
	var d Dispatcher
	d.Intersect(nil, Operand{List: small}, Operand{List: hub, Bits: buildBits(hub, universe)})
	if d.Stats.BitmapOps != 1 {
		t.Fatalf("hub intersect used kernels %+v, want 1 bitmap op", d.Stats)
	}
	// Without a bitset view the same shapes must fall back to a list
	// kernel.
	d = Dispatcher{}
	d.Intersect(nil, Operand{List: small}, Operand{List: hub})
	if d.Stats.BitmapOps != 0 || d.Stats.MergeOps+d.Stats.GallopOps != 1 {
		t.Fatalf("list fallback used kernels %+v", d.Stats)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{MergeOps: 1, GallopOps: 2, BitmapOps: 3}
	a.Add(Stats{MergeOps: 10, GallopOps: 20, BitmapOps: 30})
	if a != (Stats{MergeOps: 11, GallopOps: 22, BitmapOps: 33}) {
		t.Fatalf("Stats.Add = %+v", a)
	}
}
