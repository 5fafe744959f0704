package discovery

import (
	"slices"
	"sort"
)

// entry is one stored key: its payload and the origin that inserted it.
type entry struct {
	key    ID
	origin uint32
	value  []byte
}

// maxChunk bounds one chunk's length, and with it the entries an insert
// or delete shifts.
const maxChunk = 256

// store is one shard's key → {value, origin} map, kept in key order as a
// list of sorted chunks (a two-level B-tree): every chunk is non-empty,
// holds at most maxChunk entries, and sorts wholly before the next one.
// Point operations cost O(log n + maxChunk) and a walk resumes at any key
// in O(log n + page). Stored value bytes are never mutated — put swaps
// the slice — so a value handed out stays valid after the entry changes.
// Not safe for concurrent use: the owning poolShard's mutex guards it.
type store struct {
	chunks [][]entry
	n      int
}

// seek returns the position of the first entry whose key is >= k: chunk
// ci at offset i, or ci == len(chunks) when every key is smaller.
func (s *store) seek(k ID) (ci, i int) {
	ci = sort.Search(len(s.chunks), func(c int) bool {
		ch := s.chunks[c]
		return ch[len(ch)-1].key.Cmp(k) >= 0
	})
	if ci < len(s.chunks) {
		ch := s.chunks[ci]
		i = sort.Search(len(ch), func(j int) bool { return ch[j].key.Cmp(k) >= 0 })
	}
	return ci, i
}

// get returns k's entry, if stored.
func (s *store) get(k ID) (*entry, bool) {
	ci, i := s.seek(k)
	if ci < len(s.chunks) && s.chunks[ci][i].key == k {
		return &s.chunks[ci][i], true
	}
	return nil, false
}

// put stores value under k on behalf of origin, replacing any entry k
// already has. The store retains value.
func (s *store) put(k ID, origin uint32, value []byte) {
	ci, i := s.seek(k)
	if ci < len(s.chunks) && s.chunks[ci][i].key == k {
		s.chunks[ci][i].origin, s.chunks[ci][i].value = origin, value
		return
	}
	s.n++
	if ci == len(s.chunks) { // above every key: append to the last chunk
		if ci == 0 {
			s.chunks = append(s.chunks, []entry{{k, origin, value}})
			return
		}
		ci--
		i = len(s.chunks[ci])
	}
	ch := slices.Insert(s.chunks[ci], i, entry{k, origin, value})
	if len(ch) <= maxChunk {
		s.chunks[ci] = ch
		return
	}
	half := len(ch) / 2
	right := append(make([]entry, 0, maxChunk), ch[half:]...)
	clear(ch[half:])
	s.chunks[ci] = ch[:half]
	s.chunks = slices.Insert(s.chunks, ci+1, right)
}

// del removes k's entry, reporting whether one was stored. A chunk left
// empty is dropped; neighbors are not merged.
func (s *store) del(k ID) bool {
	ci, i := s.seek(k)
	if ci == len(s.chunks) || s.chunks[ci][i].key != k {
		return false
	}
	s.n--
	if ch := slices.Delete(s.chunks[ci], i, i+1); len(ch) > 0 {
		s.chunks[ci] = ch
	} else {
		s.chunks = slices.Delete(s.chunks, ci, ci+1)
	}
	return true
}

// ascend calls fn on every entry with key >= from, in key order, until fn
// returns false. It reports whether the walk reached the end.
func (s *store) ascend(from ID, fn func(e *entry) bool) bool {
	ci, i := s.seek(from)
	for ; ci < len(s.chunks); ci, i = ci+1, 0 {
		for ch := s.chunks[ci]; i < len(ch); i++ {
			if !fn(&ch[i]) {
				return false
			}
		}
	}
	return true
}
