// Package experiments contains one driver per table and figure of the
// paper's evaluation, each regenerating the corresponding rows/series:
//
//	Figure 1    MSPastry success under perturbation        (RunFig1)
//	Figure 7    expected local maxima, random regular      (RunFig7)
//	Figure 8    expected replicas, complete topologies     (RunFig8)
//	Figure 9    MPIL insertion behavior vs N               (RunFig9)
//	Figure 10   MPIL lookup latency and traffic vs N       (RunFig10)
//	Tables 1-2  MPIL lookup success grids                  (RunLookupTable)
//	Table 3     actual flows of lookups                    (RunTable3)
//	Figure 11   success under perturbation, all variants   (RunFig11)
//	Figure 12   lookup and total traffic under flapping    (RunFig12)
//	Ablations   MPIL design choices, unstructured search   (RunAblations)
//
// Every run is deterministic from its Scale's seed, at any core count: a
// sweep's independent cells run on GOMAXPROCS goroutines and are merged
// in loop order (forEachCell). Scales come in Paper (the paper's
// parameters) and Quick (CI-sized) presets; anything in between can be
// configured directly.
package experiments

import (
	"fmt"
	"math/rand"

	"discovery/internal/idspace"
	"discovery/internal/metrics"
	"discovery/internal/mpil"
	"discovery/internal/overlay"
	"discovery/internal/topology"
	"discovery/internal/workload"
)

// TopoKind selects the overlay family of the static experiments.
type TopoKind int

// The two families of Section 6.1.
const (
	TopoPowerLaw TopoKind = iota + 1
	TopoRandom
)

// String implements fmt.Stringer.
func (k TopoKind) String() string {
	switch k {
	case TopoPowerLaw:
		return "power-law"
	case TopoRandom:
		return "random"
	default:
		return fmt.Sprintf("TopoKind(%d)", int(k))
	}
}

// StaticScale sizes the static-overlay experiments.
type StaticScale struct {
	// Sizes are the node counts swept (paper: 4000, 8000, 16000).
	Sizes []int
	// GraphsPerSize is how many independent graphs are averaged
	// (paper: 10).
	GraphsPerSize int
	// RequestsPerGraph is the number of insert/lookup pairs per graph
	// (paper: 100).
	RequestsPerGraph int
	// RandomDegree is the fixed degree of the random overlays
	// (paper: 100).
	RandomDegree int
	// Seed makes the whole experiment reproducible.
	Seed int64
}

// PaperStaticScale returns the paper's Section 6.1 parameters. A full run
// takes minutes; use QuickStaticScale for tests.
func PaperStaticScale() StaticScale {
	return StaticScale{
		Sizes:            []int{4000, 8000, 16000},
		GraphsPerSize:    10,
		RequestsPerGraph: 100,
		RandomDegree:     100,
		Seed:             1,
	}
}

// QuickStaticScale returns a CI-sized configuration preserving the
// experiment's structure.
func QuickStaticScale() StaticScale {
	return StaticScale{
		Sizes:            []int{300, 600},
		GraphsPerSize:    2,
		RequestsPerGraph: 40,
		RandomDegree:     20,
		Seed:             1,
	}
}

// validate rejects unusable scales.
func (s StaticScale) validate() error {
	if len(s.Sizes) == 0 {
		return fmt.Errorf("experiments: no sizes configured")
	}
	for _, n := range s.Sizes {
		if n < 8 {
			return fmt.Errorf("experiments: size %d too small", n)
		}
		if s.RandomDegree >= n {
			return fmt.Errorf("experiments: random degree %d >= size %d", s.RandomDegree, n)
		}
	}
	if s.GraphsPerSize < 1 || s.RequestsPerGraph < 1 {
		return fmt.Errorf("experiments: graphs (%d) and requests (%d) must be positive", s.GraphsPerSize, s.RequestsPerGraph)
	}
	if s.RandomDegree < 1 {
		return fmt.Errorf("experiments: random degree %d must be positive", s.RandomDegree)
	}
	return nil
}

// insertConfig is the paper's fixed insertion configuration for the
// static experiments: max_flows 30, 5 per-flow replicas, duplicate
// suppression on ("a node silently discards a message if the node
// receives the same message more than once").
func insertConfig() mpil.Config {
	return mpil.Config{
		Space:                idspace.MustSpace(4),
		MaxFlows:             30,
		PerFlowReplicas:      5,
		DuplicateSuppression: true,
	}
}

// buildOverlay constructs one overlay of the requested family.
func buildOverlay(kind TopoKind, n, randomDegree int, rng *rand.Rand) (*overlay.Network, error) {
	var g *topology.Graph
	var err error
	switch kind {
	case TopoPowerLaw:
		// Inet substitute: configuration-model power law with exponent
		// 2.2 and minimum degree 2 (the paper's "0% of degree 1
		// nodes").
		g, err = topology.PowerLaw(n, 2.2, 2, rng)
	case TopoRandom:
		g, err = topology.RandomRegular(n, randomDegree, rng)
	default:
		return nil, fmt.Errorf("experiments: unknown topology kind %v", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: building %v overlay: %w", kind, err)
	}
	return overlay.New(g, rng, nil), nil
}

// staticGraph is one (size, graph) cell of a static experiment, set up:
// an MPIL engine over a fresh overlay, the cell's insert/lookup pairs, and
// the stats of inserting every pair's key with insertConfig.
type staticGraph struct {
	eng     *mpil.Engine
	pairs   []workload.InsertLookupPair
	inserts []mpil.InsertStats
}

// setupGraph builds cell (si, gi) from its own rng, seeded
// scale.Seed + 1000*si + gi, so the cell is a pure function of its
// indices.
func setupGraph(scale StaticScale, kind TopoKind, si, gi int) (staticGraph, error) {
	n := scale.Sizes[si]
	rng := rand.New(rand.NewSource(scale.Seed + int64(1000*si+gi)))
	nw, err := buildOverlay(kind, n, scale.RandomDegree, rng)
	if err != nil {
		return staticGraph{}, err
	}
	eng, err := mpil.NewEngine(nw, insertConfig(), rng)
	if err != nil {
		return staticGraph{}, err
	}
	pairs, err := workload.RandomOrigins(scale.RequestsPerGraph, n, rng)
	if err != nil {
		return staticGraph{}, err
	}
	inserts := make([]mpil.InsertStats, len(pairs))
	for i, p := range pairs {
		inserts[i] = eng.Insert(p.InsertOrigin, p.Key, nil, 0)
	}
	return staticGraph{eng: eng, pairs: pairs, inserts: inserts}, nil
}

// graphCells sets up every (size, graph) cell of scale on all cores and
// runs observe on each. It returns the observations indexed
// [size][graph]; callers replay them into their accumulators in that
// order, which keeps float means bit-identical to a serial sweep.
func graphCells[T any](scale StaticScale, kind TopoKind, observe func(staticGraph) (T, error)) ([][]T, error) {
	if err := scale.validate(); err != nil {
		return nil, err
	}
	per := scale.GraphsPerSize
	flat := make([]T, len(scale.Sizes)*per)
	err := forEachCell(len(flat), func(i int) error {
		g, err := setupGraph(scale, kind, i/per, i%per)
		if err != nil {
			return err
		}
		flat[i], err = observe(g)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, len(scale.Sizes))
	for si := range out {
		out[si] = flat[si*per : (si+1)*per]
	}
	return out, nil
}

// lookupAll runs one lookup per pair of g with cfg and returns the stats
// in pair order.
func lookupAll(g staticGraph, cfg mpil.Config) ([]mpil.LookupStats, error) {
	stats := make([]mpil.LookupStats, len(g.pairs))
	for i, p := range g.pairs {
		st, err := g.eng.LookupWith(cfg, p.LookupOrigin, p.Key, 0)
		if err != nil {
			return nil, err
		}
		stats[i] = st
	}
	return stats, nil
}

// Fig9Row is one point of Figure 9's three panels.
type Fig9Row struct {
	N          int
	Replicas   float64 // average replicas per insertion (left panel)
	Traffic    float64 // average messages per insertion (center panel)
	Duplicates float64 // total duplicate messages, averaged over graphs (right panel)
}

// RunFig9 reproduces Figure 9: MPIL insertion behavior over overlays of
// increasing size, with max_flows 30 and 5 per-flow replicas.
func RunFig9(scale StaticScale, kind TopoKind) ([]Fig9Row, error) {
	cells, err := graphCells(scale, kind, func(g staticGraph) ([]mpil.InsertStats, error) {
		return g.inserts, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig9Row, 0, len(scale.Sizes))
	for si, n := range scale.Sizes {
		var replicas, traffic, dupTotals metrics.Sample
		for _, inserts := range cells[si] {
			graphDups := 0
			for _, st := range inserts {
				replicas.AddInt(st.Replicas)
				traffic.AddInt(st.Messages)
				graphDups += st.Duplicates
			}
			dupTotals.AddInt(graphDups)
		}
		out = append(out, Fig9Row{
			N:          n,
			Replicas:   replicas.Mean(),
			Traffic:    traffic.Mean(),
			Duplicates: dupTotals.Mean(),
		})
	}
	return out, nil
}

// LookupGridRow is one row of Table 1 or Table 2: success percentages for
// per-flow replicas 1..5 at a given (N, max_flows).
type LookupGridRow struct {
	N        int
	MaxFlows int
	// SuccessPct[r-1] is the success percentage with r per-flow
	// replicas.
	SuccessPct [5]float64
}

// LookupMaxFlows is the paper's lookup max_flows sweep for Tables 1-2.
var LookupMaxFlows = []int{5, 10, 15}

// RunLookupTable reproduces Table 1 (power-law) or Table 2 (random):
// lookup success rates over a (max_flows, per-flow replicas) grid, with
// insertions fixed at max_flows 30 and 5 per-flow replicas.
func RunLookupTable(scale StaticScale, kind TopoKind) ([]LookupGridRow, error) {
	// A cell's observations are its found flags, indexed
	// [max_flows index][r-1][pair], looked up in that order on one engine.
	cells, err := graphCells(scale, kind, func(g staticGraph) ([][5][]bool, error) {
		found := make([][5][]bool, len(LookupMaxFlows))
		for mi, mf := range LookupMaxFlows {
			for r := 1; r <= 5; r++ {
				stats, err := lookupAll(g, mpil.Config{
					Space:                idspace.MustSpace(4),
					MaxFlows:             mf,
					PerFlowReplicas:      r,
					DuplicateSuppression: true,
				})
				if err != nil {
					return nil, err
				}
				for _, st := range stats {
					found[mi][r-1] = append(found[mi][r-1], st.Found)
				}
			}
		}
		return found, nil
	})
	if err != nil {
		return nil, err
	}
	var out []LookupGridRow
	for si, n := range scale.Sizes {
		for mi, mf := range LookupMaxFlows {
			row := LookupGridRow{N: n, MaxFlows: mf}
			for r := range row.SuccessPct {
				var rate metrics.Rate
				for _, found := range cells[si] {
					for _, ok := range found[mi][r] {
						rate.Record(ok)
					}
				}
				row.SuccessPct[r] = rate.Percent()
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Table3Row is one row of Table 3: the actual number of flows created by
// lookups with max_flows 10 and 3 per-flow replicas.
type Table3Row struct {
	Kind  TopoKind
	N     int
	Flows float64
}

// RunTable3 reproduces Table 3 for one topology family.
func RunTable3(scale StaticScale, kind TopoKind) ([]Table3Row, error) {
	lookupCfg := mpil.Config{
		Space:                idspace.MustSpace(4),
		MaxFlows:             10,
		PerFlowReplicas:      3,
		DuplicateSuppression: true,
	}
	cells, err := graphCells(scale, kind, func(g staticGraph) ([]mpil.LookupStats, error) {
		return lookupAll(g, lookupCfg)
	})
	if err != nil {
		return nil, err
	}
	var out []Table3Row
	for si, n := range scale.Sizes {
		var flows metrics.Sample
		for _, stats := range cells[si] {
			for _, st := range stats {
				flows.AddInt(st.Flows)
			}
		}
		out = append(out, Table3Row{Kind: kind, N: n, Flows: flows.Mean()})
	}
	return out, nil
}

// Fig10Row is one point of Figure 10: lookup latency in hops (left panel)
// and lookup traffic in messages (right panel), with max_flows 10 and 5
// per-flow replicas.
type Fig10Row struct {
	N       int
	Hops    float64 // first successful reply, successful lookups only
	Traffic float64 // total messages per lookup
}

// RunFig10 reproduces Figure 10 for one topology family.
func RunFig10(scale StaticScale, kind TopoKind) ([]Fig10Row, error) {
	lookupCfg := mpil.Config{
		Space:                idspace.MustSpace(4),
		MaxFlows:             10,
		PerFlowReplicas:      5,
		DuplicateSuppression: true,
	}
	cells, err := graphCells(scale, kind, func(g staticGraph) ([]mpil.LookupStats, error) {
		return lookupAll(g, lookupCfg)
	})
	if err != nil {
		return nil, err
	}
	var out []Fig10Row
	for si, n := range scale.Sizes {
		var hops, traffic metrics.Sample
		for _, stats := range cells[si] {
			for _, st := range stats {
				if st.Found {
					hops.AddInt(st.FirstReplyHops)
				}
				traffic.AddInt(st.Messages)
			}
		}
		out = append(out, Fig10Row{N: n, Hops: hops.Mean(), Traffic: traffic.Mean()})
	}
	return out, nil
}
