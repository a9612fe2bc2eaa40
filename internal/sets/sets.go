// Package sets provides a small generic set type with deterministic
// iteration order.
//
// The HOPE semantics (Equations 3, 4, 7, 10, 12, 14, 16, 21 and 22 of the
// paper) are defined entirely in terms of set algebra over interval and
// assumption-identifier names: IDO ("I Depend On"), DOM ("Depends On Me")
// and IHD ("I Have Denied"). Model checking those equations requires that
// iterating a set visits elements in a reproducible order, otherwise two
// runs of the same schedule can diverge; a plain map[K]struct{} does not
// give that. Set therefore keeps an insertion log and a map from each
// member to its position in the log. Removal leaves a stale log entry
// behind and re-adding appends a fresh one; iteration visits only the
// entries whose position the map still records, so a re-added element is
// visited once, in its last position. The log is compacted when stale
// entries outnumber live ones, which keeps Add and Remove amortized O(1)
// however they interleave.
//
// Bits is the companion for sets of small integer identifiers whose
// order does not matter: a sparse bitset iterated in ascending order,
// whose union and copy are word operations.
package sets

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a mutable set of comparable elements with deterministic,
// insertion-ordered iteration. The zero value is an empty set ready to use.
type Set[K comparable] struct {
	members map[K]int // member -> its position in order
	order   []K       // insertion log; entries not recorded in members are stale
}

// New returns a set containing the given elements.
func New[K comparable](elems ...K) *Set[K] {
	s := &Set[K]{}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Len reports the number of elements in the set. A nil set is empty.
func (s *Set[K]) Len() int {
	if s == nil {
		return 0
	}
	return len(s.members)
}

// Empty reports whether the set has no elements. A nil set is empty.
func (s *Set[K]) Empty() bool { return s.Len() == 0 }

// Has reports whether e is a member of the set. A nil set has no members.
func (s *Set[K]) Has(e K) bool {
	if s == nil {
		return false
	}
	_, ok := s.members[e]
	return ok
}

// live reports whether the log entry at position i is current.
func (s *Set[K]) live(i int, e K) bool {
	pos, ok := s.members[e]
	return ok && pos == i
}

// Add inserts e, reporting whether it was newly added.
func (s *Set[K]) Add(e K) bool {
	if s.members == nil {
		s.members = make(map[K]int)
	}
	if _, ok := s.members[e]; ok {
		return false
	}
	s.members[e] = len(s.order)
	s.order = append(s.order, e)
	return true
}

// AddAll inserts every element of other into s.
func (s *Set[K]) AddAll(other *Set[K]) {
	if other == nil {
		return
	}
	other.each(func(e K) { s.Add(e) })
}

// Remove deletes e, reporting whether it was present.
func (s *Set[K]) Remove(e K) bool {
	if s == nil || s.members == nil {
		return false
	}
	if _, ok := s.members[e]; !ok {
		return false
	}
	delete(s.members, e)
	// Compact lazily once stale entries dominate, keeping Add/Remove
	// amortized O(1) while bounding memory.
	if len(s.order)-len(s.members) > len(s.members)+8 {
		s.compact()
	}
	return true
}

// RemoveAll deletes every element of other from s.
func (s *Set[K]) RemoveAll(other *Set[K]) {
	if other == nil {
		return
	}
	other.each(func(e K) { s.Remove(e) })
}

// Clear removes all elements.
func (s *Set[K]) Clear() {
	if s == nil {
		return
	}
	s.members = nil
	s.order = nil
}

func (s *Set[K]) compact() {
	kept := s.order[:0]
	for i, e := range s.order {
		if s.live(i, e) {
			s.members[e] = len(kept)
			kept = append(kept, e)
		}
	}
	s.order = kept
}

// each calls fn for every live element in insertion order. fn must not
// mutate the set; use Elems for mutation-safe iteration.
func (s *Set[K]) each(fn func(K)) {
	if s == nil {
		return
	}
	for i, e := range s.order {
		if s.live(i, e) {
			fn(e)
		}
	}
}

// Range calls fn for every live element in insertion order until fn
// returns false, reporting whether the iteration ran to completion. It
// does not allocate; fn must not mutate the set (use Elems when the loop
// body removes elements).
func (s *Set[K]) Range(fn func(K) bool) bool {
	if s == nil {
		return true
	}
	for i, e := range s.order {
		if s.live(i, e) {
			if !fn(e) {
				return false
			}
		}
	}
	return true
}

// Elems returns the elements in insertion order. The slice is a copy, so it
// is safe to mutate the set while ranging over the result — the idiom every
// transition rule that removes elements mid-iteration relies on.
func (s *Set[K]) Elems() []K {
	if s == nil {
		return nil
	}
	out := make([]K, 0, len(s.members))
	s.each(func(e K) { out = append(out, e) })
	return out
}

// Clone returns an independent copy of the set.
func (s *Set[K]) Clone() *Set[K] {
	out := &Set[K]{}
	out.AddAll(s)
	return out
}

// Union returns a new set with every element of s and other.
func (s *Set[K]) Union(other *Set[K]) *Set[K] {
	out := s.Clone()
	out.AddAll(other)
	return out
}

// Minus returns a new set with the elements of s not in other.
func (s *Set[K]) Minus(other *Set[K]) *Set[K] {
	out := &Set[K]{}
	s.each(func(e K) {
		if !other.Has(e) {
			out.Add(e)
		}
	})
	return out
}

// Intersect returns a new set with the elements common to s and other.
func (s *Set[K]) Intersect(other *Set[K]) *Set[K] {
	out := &Set[K]{}
	s.each(func(e K) {
		if other.Has(e) {
			out.Add(e)
		}
	})
	return out
}

// SubsetOf reports whether every element of s is in other.
func (s *Set[K]) SubsetOf(other *Set[K]) bool {
	if s.Len() > other.Len() {
		return false
	}
	ok := true
	s.each(func(e K) {
		if !other.Has(e) {
			ok = false
		}
	})
	return ok
}

// Equal reports whether s and other contain exactly the same elements.
func (s *Set[K]) Equal(other *Set[K]) bool {
	return s.Len() == other.Len() && s.SubsetOf(other)
}

// String renders the set as {a, b, c} with elements sorted by their
// fmt.Sprint form, so the output is order-independent and stable.
func (s *Set[K]) String() string {
	parts := make([]string, 0, s.Len())
	s.each(func(e K) { parts = append(parts, fmt.Sprint(e)) })
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
