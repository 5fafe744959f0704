package experiments

import (
	"fmt"
	"math/rand"

	"discovery/internal/idspace"
	"discovery/internal/metrics"
	"discovery/internal/mpil"
	"discovery/internal/unstructured"
	"discovery/internal/workload"
)

// AblationRow is one row of the ablation table: a lookup strategy's
// success rate and mean messages per lookup on the ablation fixture.
type AblationRow struct {
	Variant    string
	SuccessPct float64
	Msgs       float64
}

// The ablation fixture is one power-law overlay with ablationKeys
// insert/lookup pairs. It is the same at every scale.
const (
	ablationNodes = 1500
	ablationKeys  = 100
)

// ablationBase is the configuration every ablation varies one setting
// of: b = 4, max_flows 10, r = 3, duplicate suppression, round-robin
// quota split and the common-digits metric.
func ablationBase() mpil.Config {
	return mpil.Config{
		Space:                idspace.MustSpace(4),
		MaxFlows:             10,
		PerFlowReplicas:      3,
		DuplicateSuppression: true,
	}
}

// ablationVariants are the MPIL cells of RunAblations, baseline first.
// Each inserts and looks up with its own configuration.
var ablationVariants = []struct {
	name string
	vary func(*mpil.Config)
}{
	{"MPIL baseline", func(*mpil.Config) {}},
	{"DS off", func(c *mpil.Config) { c.DuplicateSuppression = false }},
	{"b = 1", func(c *mpil.Config) { c.Space = idspace.MustSpace(1) }},
	{"b = 2", func(c *mpil.Config) { c.Space = idspace.MustSpace(2) }},
	{"equal split", func(c *mpil.Config) { c.QuotaSplit = mpil.QuotaSplitEqual }},
	{"shared prefix", func(c *mpil.Config) { c.Metric = mpil.MetricSharedPrefix }},
	{"XOR", func(c *mpil.Config) { c.Metric = mpil.MetricXOR }},
}

// RunAblations tests the design choices of Sections 4.2, 4.3 and 6.2 on
// a static overlay: duplicate suppression, digit width, quota split and
// routing metric, each changed alone from the baseline. After the MPIL
// rows, in cell order, come the unstructured searches of Section 1 over
// the baseline's replica placement: TTL-5 flooding, and max_flows random
// walkers of 50 steps drawn from seed + 4.
func RunAblations(seed int64) ([]AblationRow, error) {
	rows := make([]AblationRow, len(ablationVariants))
	var baselines []AblationRow
	err := forEachCell(len(rows), func(i int) error {
		cfg := ablationBase()
		ablationVariants[i].vary(&cfg)
		g, err := ablationFixture(seed, cfg)
		if err != nil {
			return err
		}
		stats, err := lookupAll(g, cfg)
		if err != nil {
			return err
		}
		var t ablationTally
		for _, st := range stats {
			t.add(st.Found, st.Messages)
		}
		rows[i] = t.row(ablationVariants[i].name)
		if i == 0 {
			baselines, err = unstructuredRows(g, cfg.MaxFlows, rand.New(rand.NewSource(seed+4)))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return append(rows, baselines...), nil
}

// ablationFixture builds the ablation overlay from seed and inserts every
// pair's key with cfg.
func ablationFixture(seed int64, cfg mpil.Config) (staticGraph, error) {
	rng := rand.New(rand.NewSource(seed))
	nw, err := buildOverlay(TopoPowerLaw, ablationNodes, 0, rng)
	if err != nil {
		return staticGraph{}, err
	}
	eng, err := mpil.NewEngine(nw, cfg, rng)
	if err != nil {
		return staticGraph{}, err
	}
	pairs, err := workload.RandomOrigins(ablationKeys, nw.N(), rng)
	if err != nil {
		return staticGraph{}, err
	}
	for _, p := range pairs {
		eng.Insert(p.InsertOrigin, p.Key, nil, 0)
	}
	return staticGraph{eng: eng, pairs: pairs}, nil
}

// unstructuredRows searches g's replicas by flooding and by walkers
// random walks from each pair's lookup origin.
func unstructuredRows(g staticGraph, walkers int, rng *rand.Rand) ([]AblationRow, error) {
	var flood, walk ablationTally
	for _, p := range g.pairs {
		holds := func(n int) bool {
			_, ok := g.eng.Stored(n, p.Key)
			return ok
		}
		fr, err := unstructured.Flood(g.eng.Overlay(), holds, p.LookupOrigin, 5, 0)
		if err != nil {
			return nil, err
		}
		flood.add(fr.Found, fr.Messages)
		wr, err := unstructured.RandomWalk(g.eng.Overlay(), holds, p.LookupOrigin, walkers, 50, 0, rng)
		if err != nil {
			return nil, err
		}
		walk.add(wr.Found, wr.Messages)
	}
	return []AblationRow{flood.row("flooding TTL 5"), walk.row(fmt.Sprintf("%d walkers x 50 steps", walkers))}, nil
}

// ablationTally accumulates one row's lookups.
type ablationTally struct {
	found metrics.Rate
	msgs  int
}

func (t *ablationTally) add(found bool, msgs int) {
	t.found.Record(found)
	t.msgs += msgs
}

func (t *ablationTally) row(variant string) AblationRow {
	return AblationRow{
		Variant:    variant,
		SuccessPct: t.found.Percent(),
		Msgs:       float64(t.msgs) / float64(t.found.Total()),
	}
}
