package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"discovery/internal/eventsim"
	"discovery/internal/idspace"
	"discovery/internal/metrics"
	"discovery/internal/mpil"
	"discovery/internal/pastry"
	"discovery/internal/perturb"
	"discovery/internal/topology"
	"discovery/internal/workload"
)

// FlapSetting is one idle:offline configuration from Figures 1 and 11.
type FlapSetting struct {
	Label   string
	Idle    time.Duration
	Offline time.Duration
}

// PaperFlapSettings are the four settings of Figure 1.
func PaperFlapSettings() []FlapSetting {
	return []FlapSetting{
		{Label: "1:1", Idle: time.Second, Offline: time.Second},
		{Label: "45:15", Idle: 45 * time.Second, Offline: 15 * time.Second},
		{Label: "30:30", Idle: 30 * time.Second, Offline: 30 * time.Second},
		{Label: "300:300", Idle: 300 * time.Second, Offline: 300 * time.Second},
	}
}

// Fig11FlapSettings are the three settings of Figure 11.
func Fig11FlapSettings() []FlapSetting {
	all := PaperFlapSettings()
	return []FlapSetting{all[0], all[2], all[3]} // 1:1, 30:30, 300:300
}

// PaperFlapProbs is the x-axis of Figures 1, 11, and 12.
func PaperFlapProbs() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// Variant selects the protocol under test in Figures 11 and 12.
type Variant int

// The four curves of Figure 11.
const (
	VariantPastry Variant = iota + 1
	VariantPastryRR
	VariantMPILDS
	VariantMPILNoDS
)

// String implements fmt.Stringer with the paper's curve labels.
func (v Variant) String() string {
	switch v {
	case VariantPastry:
		return "MSPastry"
	case VariantPastryRR:
		return "MSPastry with RR"
	case VariantMPILDS:
		return "MPIL with DS"
	case VariantMPILNoDS:
		return "MPIL without DS"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// PerturbScale sizes the perturbation experiments.
type PerturbScale struct {
	// Nodes is the overlay size (paper: 1000).
	Nodes int
	// Requests is the number of insert/lookup pairs (paper: 1000; the
	// virtual run length is Requests flapping cycles, so long cycles at
	// full paper scale simulate days of virtual time).
	Requests int
	// Seed makes the run reproducible.
	Seed int64
}

// PaperPerturbScale is the paper's Section 3/6.2 size. Full 300:300 runs
// at this scale simulate ~600000 virtual seconds of maintenance traffic;
// budget accordingly.
func PaperPerturbScale() PerturbScale {
	return PerturbScale{Nodes: 1000, Requests: 1000, Seed: 1}
}

// MediumPerturbScale trades run length for wall-clock: the same overlay
// size with fewer lookups.
func MediumPerturbScale() PerturbScale {
	return PerturbScale{Nodes: 1000, Requests: 150, Seed: 1}
}

// QuickPerturbScale is CI-sized.
func QuickPerturbScale() PerturbScale {
	return PerturbScale{Nodes: 150, Requests: 40, Seed: 1}
}

func (s PerturbScale) validate() error {
	if s.Nodes < 16 {
		return fmt.Errorf("experiments: perturbation scale needs >= 16 nodes, got %d", s.Nodes)
	}
	if s.Requests < 1 {
		return fmt.Errorf("experiments: requests %d must be positive", s.Requests)
	}
	return nil
}

// PerturbResult is one point of Figures 1, 11, or 12.
type PerturbResult struct {
	Setting FlapSetting
	Prob    float64
	Variant Variant
	// SuccessPct is the lookup success rate (Figures 1 and 11).
	SuccessPct float64
	// LookupTraffic counts application messages (data + replies) during
	// the lookup stage (Figure 12 left).
	LookupTraffic uint64
	// TotalTraffic additionally counts maintenance traffic during the
	// lookup stage (Figure 12 right). MPIL has no maintenance, so for
	// it TotalTraffic == LookupTraffic.
	TotalTraffic uint64
}

// RunPerturb executes one perturbation experiment point: build a
// 1000-node-style Pastry overlay over a transit-stub underlay, insert all
// keys from one origin on the static overlay, switch on flapping, and
// issue one lookup per flapping cycle from the same origin (the paper's
// Section 3 methodology).
func RunPerturb(scale PerturbScale, setting FlapSetting, prob float64, variant Variant) (PerturbResult, error) {
	if err := scale.validate(); err != nil {
		return PerturbResult{}, err
	}
	res := PerturbResult{Setting: setting, Prob: prob, Variant: variant}

	sim := eventsim.New(scale.Seed)
	rng := rand.New(rand.NewSource(scale.Seed))
	under, err := topology.NewUnderlay(scale.Nodes, topology.DefaultTransitStub(scale.Nodes), rng)
	if err != nil {
		return res, err
	}

	params := pastry.DefaultParams()
	params.ReplicationOnRoute = variant == VariantPastryRR
	nw, err := pastry.New(scale.Nodes, params, sim, rng, under.Latency, nil)
	if err != nil {
		return res, err
	}

	const origin = 0
	pairs := workload.SingleOrigin(scale.Requests, origin, rng)

	fl, err := perturb.New(scale.Nodes, setting.Idle, setting.Offline, prob, rng)
	if err != nil {
		return res, err
	}

	switch variant {
	case VariantPastry, VariantPastryRR:
		return runPastryPerturb(res, sim, nw, pairs, fl)
	case VariantMPILDS, VariantMPILNoDS:
		return runMPILPerturb(res, sim, nw, pairs, fl, rng, under.Latency, variant == VariantMPILDS)
	default:
		return res, fmt.Errorf("experiments: unknown variant %v", variant)
	}
}

func runPastryPerturb(res PerturbResult, sim *eventsim.Sim, nw *pastry.Network, pairs []workload.InsertLookupPair, fl *perturb.Flapping) (PerturbResult, error) {
	// Stage 1: static insertions.
	inserted := 0
	for _, p := range pairs {
		nw.Insert(p.InsertOrigin, p.Key, nil, func(ok bool, _ int) {
			if ok {
				inserted++
			}
		})
	}
	sim.Run()
	if inserted != len(pairs) {
		return res, fmt.Errorf("experiments: only %d/%d static insertions succeeded", inserted, len(pairs))
	}

	// Stage 2: flapping lookups with full maintenance.
	nw.SetAvailability(fl)
	nw.StartMaintenance()
	base := nw.Counters()

	var success metrics.Rate
	start := lookupStageStart(sim, fl)
	var last time.Duration
	for i, p := range pairs {
		p := p
		at := start + time.Duration(i)*fl.Cycle()
		last = at
		sim.At(at, func() {
			nw.Lookup(p.LookupOrigin, p.Key, func(ok bool, _ int) {
				success.Record(ok)
			})
		})
	}
	sim.RunUntil(last + 2*pastry.DefaultParams().LookupTimeout)
	nw.StopMaintenance()
	sim.Run() // drain in-flight non-periodic events

	delta := diffCounters(nw.Counters(), base)
	res.SuccessPct = success.Percent()
	res.LookupTraffic = delta.LookupTraffic()
	res.TotalTraffic = delta.Total()
	return res, nil
}

func runMPILPerturb(res PerturbResult, sim *eventsim.Sim, nw *pastry.Network, pairs []workload.InsertLookupPair, fl *perturb.Flapping, rng *rand.Rand, lat func(int, int) time.Duration, ds bool) (PerturbResult, error) {
	// MPIL adopts Pastry's structured overlay but none of its
	// maintenance (paper Section 6.2): freeze the converged neighbor
	// lists and run MPIL over them.
	snap := nw.Snapshot()
	cfg := mpil.Config{
		Space:                idspace.MustSpace(4),
		MaxFlows:             10,
		PerFlowReplicas:      5,
		DuplicateSuppression: ds,
	}
	eng, err := mpil.NewEngine(snap, cfg, rng)
	if err != nil {
		return res, err
	}

	// Stage 1: static insertions (snapshot still always-on).
	for _, p := range pairs {
		st := eng.Insert(p.InsertOrigin, p.Key, nil, 0)
		if st.Replicas == 0 {
			return res, fmt.Errorf("experiments: static MPIL insertion stored nothing")
		}
	}

	// Stage 2: flapping lookups, no maintenance of any kind. MPIL
	// inherits the host transport's per-hop retransmission (message-
	// layer machinery, not overlay maintenance) and the same end-to-end
	// application retry discipline the Pastry runs get, so the two
	// protocols differ only in routing.
	snap.SetAvailability(fl)
	clocked := mpil.NewClocked(eng, sim, lat)
	pparams := pastry.DefaultParams()
	clocked.SetTransport(mpil.Transport{
		Attempts: pparams.ProbeRetries + 1,
		Spacing:  pparams.ProbeTimeout,
	})

	var success metrics.Rate
	var traffic uint64
	start := lookupStageStart(sim, fl)
	var last time.Duration
	for i, p := range pairs {
		p := p
		at := start + time.Duration(i)*fl.Cycle()
		last = at
		deadline := at + pparams.LookupTimeout
		found := false
		resolved := false
		sim.At(deadline, func() {
			if !resolved {
				resolved = true
				success.Record(found)
			}
		})
		var attempt func()
		attempt = func() {
			if resolved || found || sim.Now() >= deadline {
				return
			}
			if snap.Online(p.LookupOrigin, sim.Now()) {
				clocked.LookupAsync(p.LookupOrigin, p.Key, func(st mpil.LookupStats) {
					traffic += uint64(st.Messages + st.Replies)
					if st.Found && !resolved {
						resolved = true
						found = true
						success.Record(true)
					}
				})
			}
			sim.After(pparams.RetryInterval, attempt)
		}
		sim.At(at, attempt)
	}
	sim.RunUntil(last + pparams.LookupTimeout + time.Minute)
	sim.Run()

	res.SuccessPct = success.Percent()
	res.LookupTraffic = traffic
	res.TotalTraffic = traffic // MPIL has no maintenance traffic
	return res, nil
}

// lookupStageStart places the first lookup after both the insertion
// stage's virtual time and the point at which every node has entered its
// flapping period (the paper performs lookups only after the latter).
func lookupStageStart(sim *eventsim.Sim, fl *perturb.Flapping) time.Duration {
	start := fl.StartTime()
	if now := sim.Now(); now > start {
		start = now
	}
	return start + fl.Cycle()
}

func diffCounters(after, before pastry.Counters) pastry.Counters {
	return pastry.Counters{
		Data:       after.Data - before.Data,
		Reply:      after.Reply - before.Reply,
		Probe:      after.Probe - before.Probe,
		ProbeReply: after.ProbeReply - before.ProbeReply,
		Maint:      after.Maint - before.Maint,
	}
}

// perturbCell is one point of a perturbation sweep: the arguments of one
// RunPerturb call, the series it belongs to, and the name its error
// carries.
type perturbCell struct {
	series  string
	setting FlapSetting
	prob    float64
	variant Variant
	name    string
}

// runPerturbCells runs every cell on all cores and appends each result to
// its series in cell order, so every series lists its points in the order
// the sweep built them.
func runPerturbCells(scale PerturbScale, cells []perturbCell) (map[string][]PerturbResult, error) {
	results := make([]PerturbResult, len(cells))
	err := forEachCell(len(cells), func(i int) error {
		c := cells[i]
		r, err := RunPerturb(scale, c.setting, c.prob, c.variant)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]PerturbResult)
	for i, c := range cells {
		out[c.series] = append(out[c.series], results[i])
	}
	return out, nil
}

// RunFig1 reproduces Figure 1: MSPastry success rate across all four flap
// settings and the full probability sweep.
func RunFig1(scale PerturbScale, settings []FlapSetting, probs []float64) (map[string][]PerturbResult, error) {
	var cells []perturbCell
	for _, set := range settings {
		for _, p := range probs {
			cells = append(cells, perturbCell{set.Label, set, p, VariantPastry,
				fmt.Sprintf("fig1 %s p=%.1f", set.Label, p)})
		}
	}
	return runPerturbCells(scale, cells)
}

// RunFig11 reproduces Figure 11: all four variants across the given
// settings and probabilities.
func RunFig11(scale PerturbScale, settings []FlapSetting, probs []float64) (map[string][]PerturbResult, error) {
	variants := []Variant{VariantPastry, VariantPastryRR, VariantMPILDS, VariantMPILNoDS}
	var cells []perturbCell
	for _, set := range settings {
		for _, v := range variants {
			for _, p := range probs {
				cells = append(cells, perturbCell{set.Label + "/" + v.String(), set, p, v,
					fmt.Sprintf("fig11 %s %v p=%.1f", set.Label, v, p)})
			}
		}
	}
	return runPerturbCells(scale, cells)
}

// RunFig12 reproduces Figure 12: lookup and total traffic at 30:30 across
// the probability sweep for MSPastry and MPIL with/without DS.
func RunFig12(scale PerturbScale, probs []float64) (map[string][]PerturbResult, error) {
	setting := FlapSetting{Label: "30:30", Idle: 30 * time.Second, Offline: 30 * time.Second}
	variants := []Variant{VariantPastry, VariantMPILDS, VariantMPILNoDS}
	var cells []perturbCell
	for _, v := range variants {
		for _, p := range probs {
			cells = append(cells, perturbCell{v.String(), setting, p, v,
				fmt.Sprintf("fig12 %v p=%.1f", v, p)})
		}
	}
	return runPerturbCells(scale, cells)
}
