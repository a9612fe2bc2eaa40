package sets

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Bits is a sparse bitset of integer identifiers. Members are grouped in
// 64-bit words keyed by e>>6 and kept sorted by key, so iteration is in
// ascending order and copy, union and subset tests work a word at a time.
// Keys span the whole uint64 range, so identifiers carrying a high-bit
// namespace prefix cost no more than dense small ones. The zero value is
// an empty set ready to use.
//
// Bits suits sets whose iteration order carries no meaning, such as the
// tracker's IDO sets; Set keeps insertion order for the sets whose order
// drives a cascade.
type Bits[K ~uint64] struct {
	words []word // sorted by key; no word has w == 0
	n     int
}

type word struct{ key, w uint64 }

func split[K ~uint64](e K) (key, mask uint64) { return uint64(e) >> 6, 1 << (uint64(e) & 63) }

// find returns the index of the word with key, or where it would go.
func (s *Bits[K]) find(key uint64) (int, bool) {
	return slices.BinarySearchFunc(s.words, key, func(w word, k uint64) int { return cmp.Compare(w.key, k) })
}

// Len reports the number of elements in the set.
func (s *Bits[K]) Len() int { return s.n }

// Empty reports whether the set has no elements.
func (s *Bits[K]) Empty() bool { return s.n == 0 }

// Has reports whether e is a member of the set.
func (s *Bits[K]) Has(e K) bool {
	key, m := split(e)
	i, ok := s.find(key)
	return ok && s.words[i].w&m != 0
}

// Add inserts e, reporting whether it was newly added.
func (s *Bits[K]) Add(e K) bool {
	key, m := split(e)
	i, ok := s.find(key)
	if !ok {
		s.words = slices.Insert(s.words, i, word{key: key})
	}
	if s.words[i].w&m != 0 {
		return false
	}
	s.words[i].w |= m
	s.n++
	return true
}

// Remove deletes e, reporting whether it was present. A word left empty
// is dropped.
func (s *Bits[K]) Remove(e K) bool {
	key, m := split(e)
	i, ok := s.find(key)
	if !ok || s.words[i].w&m == 0 {
		return false
	}
	s.n--
	if s.words[i].w &^= m; s.words[i].w == 0 {
		s.words = slices.Delete(s.words, i, i+1)
	}
	return true
}

// Range calls fn for every element in ascending order until fn returns
// false, reporting whether the iteration ran to completion. fn must not
// mutate the set.
func (s *Bits[K]) Range(fn func(K) bool) bool {
	for _, w := range s.words {
		for b := w.w; b != 0; b &= b - 1 {
			if !fn(K(w.key<<6 | uint64(bits.TrailingZeros64(b)))) {
				return false
			}
		}
	}
	return true
}

// Elems returns the elements in ascending order as a fresh slice.
func (s *Bits[K]) Elems() []K {
	if s.n == 0 {
		return nil
	}
	out := make([]K, 0, s.n)
	s.Range(func(e K) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Clone returns an independent copy of the set.
func (s *Bits[K]) Clone() Bits[K] {
	return Bits[K]{words: slices.Clone(s.words), n: s.n}
}

// UnionWith adds every element of other to s and calls added, in
// ascending order, once for each element that was not already in s.
// Each word costs one OR; a key other has and s lacks costs one
// insertion.
func (s *Bits[K]) UnionWith(other *Bits[K], added func(K)) {
	s.insertKeys(other)
	i := 0
	for _, o := range other.words {
		for s.words[i].key < o.key {
			i++
		}
		w := &s.words[i]
		fresh := o.w &^ w.w
		w.w |= o.w
		s.n += bits.OnesCount64(fresh)
		for ; fresh != 0; fresh &= fresh - 1 {
			added(K(o.key<<6 | uint64(bits.TrailingZeros64(fresh))))
		}
	}
}

// insertKeys gives s an empty word for every key of other it lacks,
// merging from the back so each existing word moves at most once.
func (s *Bits[K]) insertKeys(other *Bits[K]) {
	missing := 0
	i := 0
	for _, o := range other.words {
		for i < len(s.words) && s.words[i].key < o.key {
			i++
		}
		if i == len(s.words) || s.words[i].key != o.key {
			missing++
		}
	}
	if missing == 0 {
		return
	}
	old := len(s.words)
	s.words = slices.Grow(s.words, missing)[:old+missing]
	i, j := old-1, len(other.words)-1
	for k := len(s.words) - 1; j >= 0; k-- {
		switch key := other.words[j].key; {
		case i >= 0 && s.words[i].key > key:
			s.words[k] = s.words[i]
			i--
		case i >= 0 && s.words[i].key == key:
			s.words[k] = s.words[i]
			i--
			j--
		default:
			s.words[k] = word{key: key}
			j--
		}
	}
}

// SubsetOf reports whether every element of s is in other.
func (s *Bits[K]) SubsetOf(other *Bits[K]) bool {
	if s.n > other.n {
		return false
	}
	j := 0
	for _, w := range s.words {
		for j < len(other.words) && other.words[j].key < w.key {
			j++
		}
		if j == len(other.words) || other.words[j].key != w.key || w.w&^other.words[j].w != 0 {
			return false
		}
	}
	return true
}

// String renders the set as {a, b, c} with elements sorted by their
// fmt.Sprint form, matching Set.String.
func (s *Bits[K]) String() string {
	parts := make([]string, 0, s.n)
	s.Range(func(e K) bool {
		parts = append(parts, fmt.Sprint(e))
		return true
	})
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
