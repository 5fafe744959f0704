// Package unstructured implements the two classic unstructured-overlay
// search strategies the paper positions MPIL against (Section 1 and
// related work): Gnutella-style TTL-bounded flooding — "perturbation-
// resistant and overlay-independent, but neither efficient nor scalable" —
// and Lv et al.-style random walks. They share MPIL's Overlay interface so
// experiments.RunAblations runs all three over identical overlays and
// replica placements.
//
// Random walks also give an empirical handle on the paper's Section 5
// analysis: the expected number of hops for a walk to reach a local
// maximum is 1/C, which the package tests validate.
package unstructured

import (
	"fmt"
	"math/rand"
	"time"

	"discovery/internal/idspace"
	"discovery/internal/mpil"
)

// Holder reports whether a node currently stores the sought object.
type Holder func(node int) bool

// Result is the outcome of one unstructured search.
type Result struct {
	// Found is true when some probed node held the object.
	Found bool
	// Hops is the distance at which the object was first found
	// (flooding: BFS depth; walks: steps taken); -1 when not found.
	Hops int
	// Messages is the total traffic spent, counted like MPIL's: one per
	// message sent to a single neighbor.
	Messages int
	// Probed is the number of distinct nodes that processed the query.
	Probed int
}

// Flood performs a Gnutella-style lookup: the origin asks all neighbors,
// who ask all their neighbors, out to ttl hops, with duplicate
// suppression. Offline nodes (at virtual time `at`) drop the query.
func Flood(ov mpil.Overlay, holds Holder, origin, ttl int, at time.Duration) (Result, error) {
	if origin < 0 || origin >= ov.N() {
		return Result{}, fmt.Errorf("unstructured: origin %d out of range", origin)
	}
	if ttl < 0 {
		return Result{}, fmt.Errorf("unstructured: negative TTL %d", ttl)
	}
	res := Result{Hops: -1}
	if !ov.Online(origin, at) {
		return res, nil
	}
	type entry struct {
		node  int
		depth int
	}
	seen := map[int]bool{origin: true}
	queue := []entry{{origin, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		res.Probed++
		if holds(cur.node) {
			res.Found = true
			res.Hops = cur.depth
			// Gnutella keeps flooding (other branches are already in
			// flight); we keep draining the queue so Messages reflects
			// the real cost, but record the first hit.
			holds = neverHolds
		}
		if cur.depth == ttl {
			continue
		}
		for _, nb := range ov.Neighbors(cur.node) {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			res.Messages++
			if !ov.Online(nb, at) {
				continue
			}
			queue = append(queue, entry{nb, cur.depth + 1})
		}
	}
	return res, nil
}

func neverHolds(int) bool { return false }

// RandomWalk performs k independent random walks of at most maxSteps hops
// each, with replacement (walkers may revisit nodes, as in Lv et al.).
// The walk stops at the first holder found. Offline nodes absorb walkers.
func RandomWalk(ov mpil.Overlay, holds Holder, origin, walkers, maxSteps int, at time.Duration, rng *rand.Rand) (Result, error) {
	if origin < 0 || origin >= ov.N() {
		return Result{}, fmt.Errorf("unstructured: origin %d out of range", origin)
	}
	if walkers < 1 || maxSteps < 0 {
		return Result{}, fmt.Errorf("unstructured: need >= 1 walker and non-negative steps")
	}
	res := Result{Hops: -1}
	if !ov.Online(origin, at) {
		return res, nil
	}
	probed := map[int]bool{}
	for w := 0; w < walkers; w++ {
		cur := origin
		for step := 0; step <= maxSteps; step++ {
			if !probed[cur] {
				probed[cur] = true
			}
			if holds(cur) {
				if !res.Found || step < res.Hops {
					res.Found = true
					res.Hops = step
				}
				break
			}
			if step == maxSteps {
				break
			}
			nbs := ov.Neighbors(cur)
			if len(nbs) == 0 {
				break
			}
			next := nbs[rng.Intn(len(nbs))]
			res.Messages++
			if !ov.Online(next, at) {
				break // walker lost at a perturbed node
			}
			cur = next
		}
	}
	res.Probed = len(probed)
	return res, nil
}

// WalkToLocalMaximum walks randomly until it reaches a node that is a
// tie-aware local maximum of the common-digits metric for key, returning
// the number of hops taken (or maxSteps if none was reached). It is the
// experimental counterpart of the paper's Section 5.1 expected-hops
// analysis (E[hops] = 1/C).
func WalkToLocalMaximum(ov mpil.Overlay, space idspace.Space, key idspace.ID, origin, maxSteps int, rng *rand.Rand) int {
	isMax := func(n int) bool {
		self := space.CommonDigits(key, ov.ID(n))
		for _, v := range ov.Neighbors(n) {
			if space.CommonDigits(key, ov.ID(v)) > self {
				return false
			}
		}
		return true
	}
	cur := origin
	for step := 0; step < maxSteps; step++ {
		if isMax(cur) {
			return step
		}
		nbs := ov.Neighbors(cur)
		if len(nbs) == 0 {
			return step
		}
		cur = nbs[rng.Intn(len(nbs))]
	}
	return maxSteps
}
