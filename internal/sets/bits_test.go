package sets

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// wireBase is the namespace prefix a wire node puts on its AIDs.
const wireBase = 3 << 48

// checkBits verifies Bits' representation: words strictly ascending by
// key, no empty word, and a count equal to the set bits.
func checkBits(t *testing.T, s *Bits[uint64]) {
	t.Helper()
	n := 0
	for i, w := range s.words {
		if w.w == 0 {
			t.Fatalf("word %d (key %#x) is empty", i, w.key)
		}
		if i > 0 && s.words[i-1].key >= w.key {
			t.Fatalf("words out of order at %d: %#x then %#x", i, s.words[i-1].key, w.key)
		}
		n += bits.OnesCount64(w.w)
	}
	if n != s.n {
		t.Fatalf("count %d, but %d bits set", s.n, n)
	}
}

func sortedElems(s *Set[uint64]) []uint64 {
	out := s.Elems()
	slices.Sort(out)
	return out
}

// sameAs compares b with the reference set ref: length, ascending
// iteration and membership.
func sameAs(t *testing.T, b *Bits[uint64], ref *Set[uint64], pool []uint64) {
	t.Helper()
	checkBits(t, b)
	if b.Len() != ref.Len() || b.Empty() != ref.Empty() {
		t.Fatalf("Len %d, reference %d", b.Len(), ref.Len())
	}
	if got, want := b.Elems(), sortedElems(ref); !slices.Equal(got, want) {
		t.Fatalf("Elems %v, reference sorted %v", got, want)
	}
	for _, e := range pool {
		if b.Has(e) != ref.Has(e) {
			t.Fatalf("Has(%#x) = %v, reference %v", e, b.Has(e), ref.Has(e))
		}
	}
}

// TestBitsAgainstSet drives several Bits and Set pairs through the same
// seeded random sequence of Add, Remove, Has, Clone, SubsetOf and
// UnionWith, and requires them to agree after every step. The element
// pool mixes small dense AIDs, AIDs around word boundaries, and AIDs
// carrying a wire node base, in small enough numbers that removes often
// empty a word.
func TestBitsAgainstSet(t *testing.T) {
	var pool []uint64
	for n := uint64(0); n < 40; n++ {
		pool = append(pool, n, 60+n, wireBase|n, wireBase|(1000+n))
	}
	pool = append(pool, 1<<63, 1<<63|63, ^uint64(0))
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const k = 3
		var bs [k]Bits[uint64]
		var refs [k]*Set[uint64]
		for i := range refs {
			refs[i] = New[uint64]()
		}
		for step := 0; step < 1500; step++ {
			i, j := rng.Intn(k), rng.Intn(k)
			e := pool[rng.Intn(len(pool))]
			switch op := rng.Intn(12); {
			case op < 5:
				if got, want := bs[i].Add(e), refs[i].Add(e); got != want {
					t.Fatalf("seed %d step %d: Add(%#x) = %v, reference %v", seed, step, e, got, want)
				}
			case op < 9:
				if got, want := bs[i].Remove(e), refs[i].Remove(e); got != want {
					t.Fatalf("seed %d step %d: Remove(%#x) = %v, reference %v", seed, step, e, got, want)
				}
			case op == 9:
				if i == j {
					continue
				}
				bs[i] = bs[j].Clone()
				refs[i] = refs[j].Clone()
				// The clone must not share words with its source.
				bs[j].Add(e)
				refs[j].Add(e)
			case op == 10:
				if got, want := bs[i].SubsetOf(&bs[j]), refs[i].SubsetOf(refs[j]); got != want {
					t.Fatalf("seed %d step %d: SubsetOf = %v, reference %v", seed, step, got, want)
				}
			default:
				if i == j {
					continue
				}
				want := sortedElems(refs[j].Minus(refs[i]))
				var got []uint64
				bs[i].UnionWith(&bs[j], func(e uint64) { got = append(got, e) })
				refs[i].AddAll(refs[j])
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: UnionWith reported %v, newly inserted %v", seed, step, got, want)
				}
			}
			for x := range bs {
				sameAs(t, &bs[x], refs[x], pool)
			}
		}
	}
}

func TestBitsZeroValueAndRemoveEmptiesWord(t *testing.T) {
	var s Bits[uint64]
	if !s.Empty() || s.Has(0) || s.Remove(5) || s.Elems() != nil {
		t.Fatal("zero Bits is not an empty set")
	}
	s.Add(wireBase | 7)
	s.Add(3)
	s.Add(wireBase | 64)
	if got, want := s.Elems(), []uint64{3, wireBase | 7, wireBase | 64}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	if len(s.words) != 3 {
		t.Fatalf("%d words for three keys", len(s.words))
	}
	s.Remove(wireBase | 7)
	if len(s.words) != 2 || s.Has(wireBase|7) || s.Len() != 2 {
		t.Fatalf("removing a word's last member left %d words, len %d", len(s.words), s.Len())
	}
}

func TestBitsRangeStops(t *testing.T) {
	var s Bits[uint64]
	for _, e := range []uint64{200, 1, 70, 2} {
		s.Add(e)
	}
	var seen []uint64
	done := s.Range(func(e uint64) bool {
		seen = append(seen, e)
		return len(seen) < 3
	})
	if done || !reflect.DeepEqual(seen, []uint64{1, 2, 70}) {
		t.Fatalf("Range visited %v (done=%v), want [1 2 70] then stop", seen, done)
	}
}

func TestBitsString(t *testing.T) {
	var s Bits[uint64]
	for _, e := range []uint64{10, 9, 100} {
		s.Add(e)
	}
	if got := s.String(); got != "{10, 100, 9}" {
		t.Fatalf("String = %q", got)
	}
}

// BenchmarkBitsUnion measures Equation 12's merge: a 64-member
// replacement set spread over three words, unioned into a set that
// already holds most of it.
func BenchmarkBitsUnion(b *testing.B) {
	var repl, base Bits[uint64]
	for e := uint64(0); e < 192; e += 3 {
		repl.Add(e)
		if e%9 != 0 {
			base.Add(e)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := base.Clone()
		s.UnionWith(&repl, func(uint64) {})
	}
}
