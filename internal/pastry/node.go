package pastry

import (
	"discovery/internal/idspace"
)

// node is one Pastry participant's local state. All state mutation goes
// through the Network, which owns timing and message delivery; nodes never
// touch each other's fields directly (the simulator is monolithic, but the
// protocol logic respects message boundaries so its behavior matches a
// distributed deployment).
type node struct {
	idx int
	id  idspace.ID
	w   idspace.Words // id decoded once for the ring arithmetic

	// left holds ring predecessors ordered by increasing counter-
	// clockwise distance; right holds successors ordered by increasing
	// clockwise distance. Each side is capped at LeafSize/2.
	left  []int
	right []int

	// rt is the routing table: rt[row][col] is a node index whose ID
	// shares exactly `row` leading digits with ours and has digit value
	// `col` at position `row`; -1 marks an empty cell.
	rt [][]int

	// store holds object pointers this node is responsible for.
	store map[idspace.ID][]byte

	// probeCursor round-robins leaf-set probing; rtProbeRow/Col
	// round-robin routing-table probing.
	probeCursor int
	rtProbeRow  int
	rtProbeCol  int

	// seen deduplicates application messages by UID so retransmitted
	// copies are re-acked but not re-forwarded.
	seen map[uint64]bool
}

func newNode(idx int, id idspace.ID, rows, cols int) *node {
	n := &node{
		idx:   idx,
		id:    id,
		w:     id.Words(),
		rt:    make([][]int, rows),
		store: make(map[idspace.ID][]byte),
		seen:  make(map[uint64]bool),
	}
	for r := range n.rt {
		n.rt[r] = make([]int, cols)
		for c := range n.rt[r] {
			n.rt[r][c] = -1
		}
	}
	return n
}

// leafMembers returns every node index in the leaf set.
func (n *node) leafMembers() []int {
	out := make([]int, 0, len(n.left)+len(n.right))
	out = append(out, n.left...)
	out = append(out, n.right...)
	return out
}

// inLeafset reports whether idx is currently a leaf-set member.
func (n *node) inLeafset(idx int) bool {
	for _, v := range n.left {
		if v == idx {
			return true
		}
	}
	for _, v := range n.right {
		if v == idx {
			return true
		}
	}
	return false
}

// network-level helpers that need ID access live on Network; the methods
// below are pure list surgery.

// removeLeaf deletes idx from whichever side holds it, preserving order,
// and reports whether it was present.
func (n *node) removeLeaf(idx int) bool {
	if removeOrdered(&n.left, idx) {
		return true
	}
	return removeOrdered(&n.right, idx)
}

func removeOrdered(list *[]int, v int) bool {
	l := *list
	for i, w := range l {
		if w == v {
			*list = append(l[:i], l[i+1:]...)
			return true
		}
	}
	return false
}
