// Package discovery is a perturbation-resistant, overlay-independent
// resource location and discovery library — a production-shaped
// implementation of MPIL (Multi-Path Insertion/Lookup) from Ko & Gupta,
// "Perturbation-Resistant and Overlay-Independent Resource Discovery"
// (DSN 2005).
//
// The library lets any distributed application insert and look up object
// pointers over any overlay graph — structured or not — without deploying
// overlay maintenance protocols. Routing uses a deterministic ID-space
// metric (shared digit count) and exploits limited redundancy (multiple
// flows, multiple replicas per flow) for robustness against node
// perturbation such as congestion stalls or churn.
//
// # Quick start
//
//	ov, _ := discovery.RandomOverlay(1000, 20, 42)
//	svc, _ := discovery.New(ov)
//	key := discovery.NewID("my-object")
//	svc.Insert(0, key, []byte("http://host/object"))
//	res := svc.Lookup(731, key)   // res.Found, res.FirstReplyHops, ...
//
// The internal packages additionally contain the paper's full experimental
// apparatus (a Pastry baseline, flapping perturbation models, a
// discrete-event simulator, and per-figure benchmark harnesses); see
// EXPERIMENTS.md.
package discovery

import (
	"math/rand"

	"discovery/internal/idspace"
)

// ID is a 160-bit identifier in the discovery key space. Node and object
// IDs share this space.
type ID = idspace.ID

// NewID hashes an arbitrary name (an object URL, a node address) into the
// ID space with SHA-1, the hash Pastry-era deployments used; output is
// exactly 160 bits.
func NewID(name string) ID { return idspace.FromString(name) }

// ParseID parses a 40-character hexadecimal identifier.
func ParseID(hex string) (ID, error) { return idspace.ParseHex(hex) }

// RandomID draws an ID uniformly at random from the given source.
func RandomID(rng *rand.Rand) ID { return idspace.Random(rng) }
