package setops

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func set(xs ...VertexID) []VertexID { return xs }

func TestIntersectBasic(t *testing.T) {
	cases := []struct{ a, b, want []VertexID }{
		{set(), set(1, 2), set()},
		{set(1, 2), set(), set()},
		{set(1, 3, 5), set(2, 4, 6), set()},
		{set(1, 3, 5), set(3, 5, 7), set(3, 5)},
		{set(1, 2, 3), set(1, 2, 3), set(1, 2, 3)},
		{set(0), set(0), set(0)},
	}
	for _, c := range cases {
		got := Intersect(nil, c.a, c.b)
		if !equal(got, c.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectAppendsToDst(t *testing.T) {
	dst := set(99)
	got := Intersect(dst, set(1, 2), set(2, 3))
	if !equal(got, set(99, 2)) {
		t.Fatalf("Intersect did not append: %v", got)
	}
}

func TestGallopPath(t *testing.T) {
	big := make([]VertexID, 2000)
	for i := range big {
		big[i] = VertexID(3 * i)
	}
	small := set(0, 3, 7, 5997, 6000)
	got := Intersect(nil, small, big)
	want := set(0, 3, 5997)
	if !equal(got, want) {
		t.Fatalf("galloping Intersect = %v, want %v", got, want)
	}
	// Symmetric argument order must not matter.
	if got2 := Intersect(nil, big, small); !equal(got2, want) {
		t.Fatalf("swapped galloping Intersect = %v, want %v", got2, want)
	}
}

func TestSubtract(t *testing.T) {
	cases := []struct{ a, b, want []VertexID }{
		{set(), set(1), set()},
		{set(1, 2, 3), set(), set(1, 2, 3)},
		{set(1, 2, 3), set(2), set(1, 3)},
		{set(1, 2, 3), set(1, 2, 3), set()},
		{set(1, 5, 9), set(0, 2, 4, 6, 8, 10), set(1, 5, 9)},
	}
	for _, c := range cases {
		if got := Subtract(nil, c.a, c.b); !equal(got, c.want) {
			t.Errorf("Subtract(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBoundAndLowerBound(t *testing.T) {
	s := set(2, 4, 6, 8)
	if got := Bound(s, 6); !equal(got, set(2, 4)) {
		t.Errorf("Bound(...,6) = %v", got)
	}
	if got := Bound(s, 100); !equal(got, s) {
		t.Errorf("Bound(...,100) = %v", got)
	}
	if got := Bound(s, 0); len(got) != 0 {
		t.Errorf("Bound(...,0) = %v", got)
	}
	if got := lowerBound(s, 4); got != 1 {
		t.Errorf("lowerBound(...,4) = %d", got)
	}
	if got := lowerBound(s, 9); got != len(s) {
		t.Errorf("lowerBound(...,9) = %d", got)
	}
}

// TestSearchHelpersMatchSortSearch pins the hand-written binary search
// behind Bound and Contains to sort.Search on every
// probe around every element, including the empty set and NoLimit.
func TestSearchHelpersMatchSortSearch(t *testing.T) {
	for _, s := range [][]VertexID{nil, set(5), set(0, 1, 2, 3, 9, 40, 41, NoLimit)} {
		probes := []VertexID{-1, NoLimit}
		for _, x := range s {
			probes = append(probes, x-1, x, x+1)
		}
		for _, x := range probes {
			ge := sort.Search(len(s), func(i int) bool { return s[i] >= x })
			if got := len(Bound(s, x)); got != ge {
				t.Errorf("len(Bound(%v, %d)) = %d, want %d", s, x, got, ge)
			}
			if got, want := Contains(s, x), ge < len(s) && s[ge] == x; got != want {
				t.Errorf("Contains(%v, %d) = %v", s, x, got)
			}
		}
	}
}

func TestRemoveAndContains(t *testing.T) {
	s := set(1, 3, 5)
	if got := Subtract(nil, s, set(3)); !equal(got, set(1, 5)) {
		t.Errorf("Remove 3 = %v", got)
	}
	if got := Subtract(nil, s, set(4)); !equal(got, s) {
		t.Errorf("Remove missing = %v", got)
	}
	if !Contains(s, 5) || Contains(s, 4) || Contains(nil, 1) {
		t.Error("Contains misbehaved")
	}
}

func TestLines(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 16: 1, 17: 2, 32: 2, 33: 3}
	for n, want := range cases {
		if got := Lines(n); got != want {
			t.Errorf("Lines(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSegmentPairs(t *testing.T) {
	if SegmentPairs(0, 0) != 0 {
		t.Error("SegmentPairs(0,0) != 0")
	}
	if got := SegmentPairs(16, 16); got != 2 {
		t.Errorf("SegmentPairs(16,16) = %d, want 2", got)
	}
	if got := SegmentPairs(17, 1); got != 3 {
		t.Errorf("SegmentPairs(17,1) = %d, want 3", got)
	}
}

// Property tests against map-based oracles.

func randSet(rng *rand.Rand, n, universe int) []VertexID {
	m := map[VertexID]bool{}
	for i := 0; i < n; i++ {
		m[VertexID(rng.Intn(universe))] = true
	}
	out := make([]VertexID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestIntersectSubtractProperty(t *testing.T) {
	f := func(seed int64, na, nb uint8, skew bool) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 200
		a := randSet(rng, int(na), universe)
		bLen := int(nb)
		if skew {
			bLen *= 40 // force the galloping path
			universe = 4000
		}
		b := randSet(rng, bLen, universe)

		inter := Intersect(nil, a, b)
		sub := Subtract(nil, a, b)

		im := map[VertexID]bool{}
		for _, x := range b {
			im[x] = true
		}
		var wantI, wantS []VertexID
		for _, x := range a {
			if im[x] {
				wantI = append(wantI, x)
			} else {
				wantS = append(wantS, x)
			}
		}
		return equal(inter, wantI) && equal(sub, wantS) &&
			len(inter)+len(sub) == len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func equal(a, b []VertexID) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
