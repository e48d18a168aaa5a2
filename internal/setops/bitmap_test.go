package setops

import (
	"bytes"
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
	BitsetFill(bits, set(0, 63, 64, 199))
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
// (counting over a Bound-truncated list against a full-set bitset too,
// as the counting leaf does) and the adaptive dispatcher must agree with
// the merge reference on arbitrary ascending inputs.
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
		if got, want := IntersectCountBitmap(Bound(a, limit), bits), len(Bound(wantI, limit)); got != want {
			t.Fatalf("IntersectCountBitmap(bounded %d): %d want %d", limit, got, want)
		}
		if got := SubtractBitmap(nil, a, bits); !equal(got, wantS) {
			t.Fatalf("SubtractBitmap: %v want %v", got, wantS)
		}

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
		}
	})
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

		var d Dispatcher
		wantI := Intersect(nil, a, b)
		wantS := Subtract(nil, a, b)
		return equal(d.Intersect(nil, oa, ob), wantI) &&
			equal(d.Subtract(nil, oa, ob), wantS)
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
	a, b := Operand{List: small}, Operand{List: hub, Bits: buildBits(hub, universe)}
	if probe, bs, ok := bitmapPlan(&a, &b); !ok || bs != &b || !equal(probe, small) {
		t.Fatalf("hub intersect: bitmapPlan ok=%v, want the small list probing the hub's bits", ok)
	}
	// Without a bitset view the same shapes must fall back to a list
	// kernel.
	b.Bits = nil
	if _, _, ok := bitmapPlan(&a, &b); ok {
		t.Fatal("list-only operands: bitmapPlan chose a bitmap kernel")
	}
}

// FuzzCountKernels checks the dispatcher's count-only kernels against
// materializing the result and reading it the way a counting leaf
// parent used to: |result|, |Bound(result, limit)|, and Contains for a
// probe vertex inside the bound. Every bitset combination is covered, so
// the bitmap, merge and gallop count walks all meet the reference, and
// so is NoLimit (the limit byte's top bit selects it).
func FuzzCountKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 2, 4}, uint16(50), uint16(3))
	f.Add([]byte{}, []byte{1}, uint16(0), uint16(0))
	f.Add([]byte{5, 5, 5, 5}, []byte{}, uint16(1<<15|7), uint16(5))
	// A one-element side against 40 elements takes the gallop walk.
	f.Add([]byte{30}, bytes.Repeat([]byte{1}, 40), uint16(1<<15), uint16(29))
	f.Fuzz(func(t *testing.T, da, db []byte, rawLimit, rawProbe uint16) {
		const universe = 4096
		a := fuzzSet(da, universe)
		b := fuzzSet(db, universe)
		limit := VertexID(rawLimit&(1<<15-1)) % (universe + 1)
		if rawLimit&(1<<15) != 0 {
			limit = NoLimit
		}
		probe := VertexID(rawProbe) % universe
		abits, bbits := buildBits(a, universe), buildBits(b, universe)
		combos := []struct {
			name string
			a, b Operand
		}{
			{"lists", Operand{List: a}, Operand{List: b}},
			{"bbits", Operand{List: a}, Operand{List: b, Bits: bbits}},
			{"abits", Operand{List: a, Bits: abits}, Operand{List: b}},
			{"both", Operand{List: a, Bits: abits}, Operand{List: b, Bits: bbits}},
		}
		for _, c := range combos {
			var d Dispatcher
			for _, op := range []struct {
				name  string
				sub   bool
				want  []VertexID
				count func(a, b Operand, limit VertexID) (int, int)
			}{
				{"IntersectCount", false, Intersect(nil, a, b), d.IntersectCount},
				{"SubtractCount", true, Subtract(nil, a, b), d.SubtractCount},
			} {
				n, under := op.count(c.a, c.b, limit)
				bounded := Bound(op.want, limit)
				if n != len(op.want) || under != len(bounded) {
					t.Fatalf("%s[%s] limit %d = (%d, %d), want (%d, %d)", op.name, c.name, limit, n, under, len(op.want), len(bounded))
				}
				// The membership test a leaf parent settles its
				// distinct ancestors with: in a, and in b or not as
				// the operation requires.
				inA, inB := Contains(a, probe), Contains(b, probe)
				if got, want := inA && inB != op.sub, Contains(op.want, probe); got != want {
					t.Fatalf("%s[%s]: membership of %d = %v, want %v", op.name, c.name, probe, got, want)
				}
			}
		}
	})
}
