package discovery

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices listed under "Ablations" in
// EXPERIMENTS.md.
// Each bench runs the corresponding experiment at CI scale and reports the
// headline quantity as a custom metric, so `go test -bench=. -benchmem`
// regenerates every result's shape in one sweep. Full-scale runs are
// `go run ./cmd/repro -scale paper <experiment>`.

import (
	"math/rand"
	"testing"
	"time"

	"discovery/internal/experiments"
	"discovery/internal/idspace"
	"discovery/internal/mpil"
	"discovery/internal/overlay"
	"discovery/internal/topology"
	"discovery/internal/unstructured"
	"discovery/internal/workload"
)

func benchStaticScale() experiments.StaticScale {
	s := experiments.QuickStaticScale()
	s.GraphsPerSize = 1
	return s
}

func benchPerturbScale() experiments.PerturbScale {
	return experiments.PerturbScale{Nodes: 120, Requests: 30, Seed: 1}
}

// BenchmarkFig1PastryPerturbation regenerates Figure 1's worst and
// mildest settings at one probability, reporting success rates.
func BenchmarkFig1PastryPerturbation(b *testing.B) {
	scale := benchPerturbScale()
	var mild, harsh float64
	for i := 0; i < b.N; i++ {
		r1, err := experiments.RunPerturb(scale,
			experiments.FlapSetting{Label: "45:15", Idle: 45 * time.Second, Offline: 15 * time.Second},
			0.8, experiments.VariantPastry)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := experiments.RunPerturb(scale,
			experiments.FlapSetting{Label: "300:300", Idle: 300 * time.Second, Offline: 300 * time.Second},
			0.8, experiments.VariantPastry)
		if err != nil {
			b.Fatal(err)
		}
		mild, harsh = r1.SuccessPct, r2.SuccessPct
	}
	b.ReportMetric(mild, "45:15-success-%")
	b.ReportMetric(harsh, "300:300-success-%")
}

// BenchmarkFig7LocalMaximaAnalysis regenerates Figure 7's closed-form
// series.
func BenchmarkFig7LocalMaximaAnalysis(b *testing.B) {
	var headline float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig7([]int{4000, 8000, 16000})
		if err != nil {
			b.Fatal(err)
		}
		headline = rows[0].Maxima[2] // d=10, N=16000: paper plots ~1200
	}
	b.ReportMetric(headline, "maxima@d10,N16000")
}

// BenchmarkFig8CompleteReplicasAnalysis regenerates Figure 8.
func BenchmarkFig8CompleteReplicasAnalysis(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].Replicas // paper plots ~1.63
	}
	b.ReportMetric(last, "replicas@N16000")
}

// BenchmarkFig9InsertionBehavior regenerates Figure 9's three panels over
// both overlay families.
func BenchmarkFig9InsertionBehavior(b *testing.B) {
	scale := benchStaticScale()
	var plReplicas, rdReplicas float64
	for i := 0; i < b.N; i++ {
		pl, err := experiments.RunFig9(scale, experiments.TopoPowerLaw)
		if err != nil {
			b.Fatal(err)
		}
		rd, err := experiments.RunFig9(scale, experiments.TopoRandom)
		if err != nil {
			b.Fatal(err)
		}
		plReplicas, rdReplicas = pl[0].Replicas, rd[0].Replicas
	}
	b.ReportMetric(plReplicas, "powerlaw-replicas")
	b.ReportMetric(rdReplicas, "random-replicas")
}

// BenchmarkTable1LookupPowerLaw regenerates Table 1's success grid.
func BenchmarkTable1LookupPowerLaw(b *testing.B) {
	benchLookupTable(b, experiments.TopoPowerLaw)
}

// BenchmarkTable2LookupRandom regenerates Table 2's success grid.
func BenchmarkTable2LookupRandom(b *testing.B) {
	benchLookupTable(b, experiments.TopoRandom)
}

func benchLookupTable(b *testing.B, kind experiments.TopoKind) {
	b.Helper()
	scale := benchStaticScale()
	var r1, r5 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunLookupTable(scale, kind)
		if err != nil {
			b.Fatal(err)
		}
		r1, r5 = rows[0].SuccessPct[0], rows[0].SuccessPct[4]
	}
	b.ReportMetric(r1, "success-%@r1")
	b.ReportMetric(r5, "success-%@r5")
}

// BenchmarkTable3ActualFlows regenerates Table 3.
func BenchmarkTable3ActualFlows(b *testing.B) {
	scale := benchStaticScale()
	var flows float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable3(scale, experiments.TopoPowerLaw)
		if err != nil {
			b.Fatal(err)
		}
		flows = rows[0].Flows
	}
	b.ReportMetric(flows, "actual-flows")
}

// BenchmarkFig10LookupLatencyTraffic regenerates Figure 10's two panels.
func BenchmarkFig10LookupLatencyTraffic(b *testing.B) {
	scale := benchStaticScale()
	var hops, traffic float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig10(scale, experiments.TopoPowerLaw)
		if err != nil {
			b.Fatal(err)
		}
		hops, traffic = rows[0].Hops, rows[0].Traffic
	}
	b.ReportMetric(hops, "latency-hops")
	b.ReportMetric(traffic, "msgs/lookup")
}

// BenchmarkFig11PerturbationComparison regenerates Figure 11's central
// comparison at 30:30, heavy flapping.
func BenchmarkFig11PerturbationComparison(b *testing.B) {
	scale := benchPerturbScale()
	setting := experiments.FlapSetting{Label: "30:30", Idle: 30 * time.Second, Offline: 30 * time.Second}
	var pastryPct, mpilPct float64
	for i := 0; i < b.N; i++ {
		rp, err := experiments.RunPerturb(scale, setting, 0.9, experiments.VariantPastry)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := experiments.RunPerturb(scale, setting, 0.9, experiments.VariantMPILNoDS)
		if err != nil {
			b.Fatal(err)
		}
		pastryPct, mpilPct = rp.SuccessPct, rm.SuccessPct
	}
	b.ReportMetric(pastryPct, "MSPastry-success-%")
	b.ReportMetric(mpilPct, "MPIL-success-%")
}

// BenchmarkFig12Traffic regenerates Figure 12's traffic accounting.
func BenchmarkFig12Traffic(b *testing.B) {
	scale := benchPerturbScale()
	setting := experiments.FlapSetting{Label: "30:30", Idle: 30 * time.Second, Offline: 30 * time.Second}
	var pastryTotal, mpilTotal float64
	for i := 0; i < b.N; i++ {
		rp, err := experiments.RunPerturb(scale, setting, 0.5, experiments.VariantPastry)
		if err != nil {
			b.Fatal(err)
		}
		rm, err := experiments.RunPerturb(scale, setting, 0.5, experiments.VariantMPILNoDS)
		if err != nil {
			b.Fatal(err)
		}
		pastryTotal, mpilTotal = float64(rp.TotalTraffic), float64(rm.TotalTraffic)
	}
	b.ReportMetric(pastryTotal, "MSPastry-total-msgs")
	b.ReportMetric(mpilTotal, "MPIL-total-msgs")
}

// --- Ablation benches (EXPERIMENTS.md, "Ablations") ---

// ablationFixture builds a static overlay plus inserted keys for ablation
// lookups.
func ablationFixture(b *testing.B, cfg mpil.Config) (*mpil.Engine, []workload.InsertLookupPair) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := topology.PowerLaw(1500, 2.2, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	nw := overlay.New(g, rng, nil)
	eng, err := mpil.NewEngine(nw, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := workload.RandomOrigins(100, nw.N(), rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pairs {
		eng.Insert(p.InsertOrigin, p.Key, nil, 0)
	}
	return eng, pairs
}

func ablationSuccessAndTraffic(b *testing.B, cfg mpil.Config) (successPct, msgs float64) {
	b.Helper()
	eng, pairs := ablationFixture(b, cfg)
	found, traffic := 0, 0
	for _, p := range pairs {
		st, err := eng.LookupWith(cfg, p.LookupOrigin, p.Key, 0)
		if err != nil {
			b.Fatal(err)
		}
		if st.Found {
			found++
		}
		traffic += st.Messages
	}
	return 100 * float64(found) / float64(len(pairs)), float64(traffic) / float64(len(pairs))
}

// BenchmarkAblationDuplicateSuppression contrasts DS on/off on a static
// overlay (the paper's Section 6.2 finding is that DS saves traffic but
// costs robustness on dynamic overlays; statically it should only save
// traffic).
func BenchmarkAblationDuplicateSuppression(b *testing.B) {
	base := mpil.Config{Space: idspace.MustSpace(4), MaxFlows: 10, PerFlowReplicas: 3}
	var msgsOn, msgsOff float64
	for i := 0; i < b.N; i++ {
		on := base
		on.DuplicateSuppression = true
		_, msgsOn = ablationSuccessAndTraffic(b, on)
		_, msgsOff = ablationSuccessAndTraffic(b, base)
	}
	b.ReportMetric(msgsOn, "msgs/lookup-DS")
	b.ReportMetric(msgsOff, "msgs/lookup-noDS")
}

// BenchmarkAblationDigitBase contrasts the routing metric's digit width:
// smaller digits tie more often, branching more flows.
func BenchmarkAblationDigitBase(b *testing.B) {
	results := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, bits := range []int{1, 2, 4} {
			cfg := mpil.Config{
				Space:                idspace.MustSpace(bits),
				MaxFlows:             10,
				PerFlowReplicas:      3,
				DuplicateSuppression: true,
			}
			pct, _ := ablationSuccessAndTraffic(b, cfg)
			results[bits] = pct
		}
	}
	b.ReportMetric(results[1], "success-%@b1")
	b.ReportMetric(results[2], "success-%@b2")
	b.ReportMetric(results[4], "success-%@b4")
}

// BenchmarkAblationQuotaSplit contrasts the paper's round-robin residue
// rule against naive equal split, which silently burns quota at branches.
func BenchmarkAblationQuotaSplit(b *testing.B) {
	base := mpil.Config{
		Space:                idspace.MustSpace(4),
		MaxFlows:             10,
		PerFlowReplicas:      3,
		DuplicateSuppression: true,
	}
	var rr, eq float64
	for i := 0; i < b.N; i++ {
		rrCfg := base
		rrCfg.QuotaSplit = mpil.QuotaSplitRoundRobin
		rr, _ = ablationSuccessAndTraffic(b, rrCfg)
		eqCfg := base
		eqCfg.QuotaSplit = mpil.QuotaSplitEqual
		eq, _ = ablationSuccessAndTraffic(b, eqCfg)
	}
	b.ReportMetric(rr, "success-%-roundrobin")
	b.ReportMetric(eq, "success-%-equalsplit")
}

// BenchmarkAblationReplicationOnRoute contrasts base MSPastry against the
// RR variant under perturbation.
func BenchmarkAblationReplicationOnRoute(b *testing.B) {
	scale := benchPerturbScale()
	setting := experiments.FlapSetting{Label: "30:30", Idle: 30 * time.Second, Offline: 30 * time.Second}
	var base, rr float64
	for i := 0; i < b.N; i++ {
		r1, err := experiments.RunPerturb(scale, setting, 0.7, experiments.VariantPastry)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := experiments.RunPerturb(scale, setting, 0.7, experiments.VariantPastryRR)
		if err != nil {
			b.Fatal(err)
		}
		base, rr = r1.SuccessPct, r2.SuccessPct
	}
	b.ReportMetric(base, "MSPastry-success-%")
	b.ReportMetric(rr, "MSPastry+RR-success-%")
}

// BenchmarkAblationMetric contrasts the three routing metrics of the
// Section 4.2 distinguishability argument over a power-law overlay.
func BenchmarkAblationMetric(b *testing.B) {
	type out struct{ pct, msgs float64 }
	results := map[mpil.Metric]out{}
	for i := 0; i < b.N; i++ {
		for _, m := range []mpil.Metric{mpil.MetricCommonDigits, mpil.MetricSharedPrefix, mpil.MetricXOR} {
			cfg := mpil.Config{
				Space:                idspace.MustSpace(4),
				MaxFlows:             10,
				PerFlowReplicas:      3,
				DuplicateSuppression: true,
				Metric:               m,
			}
			pct, msgs := ablationSuccessAndTraffic(b, cfg)
			results[m] = out{pct, msgs}
		}
	}
	b.ReportMetric(results[mpil.MetricCommonDigits].pct, "success-%-commondigits")
	b.ReportMetric(results[mpil.MetricCommonDigits].msgs, "msgs-commondigits")
	b.ReportMetric(results[mpil.MetricSharedPrefix].pct, "success-%-prefix")
	b.ReportMetric(results[mpil.MetricSharedPrefix].msgs, "msgs-prefix")
	b.ReportMetric(results[mpil.MetricXOR].pct, "success-%-xor")
	b.ReportMetric(results[mpil.MetricXOR].msgs, "msgs-xor")
}

// BenchmarkBaselineFloodVsMPIL contrasts MPIL against Gnutella-style
// flooding on identical overlays and replica placements: both find the
// object, flooding pays an order of magnitude more traffic (the paper's
// Section 1 positioning).
func BenchmarkBaselineFloodVsMPIL(b *testing.B) {
	cfg := mpil.Config{Space: idspace.MustSpace(4), MaxFlows: 10, PerFlowReplicas: 3, DuplicateSuppression: true}
	var mpilMsgs, floodMsgs, mpilPct, floodPct float64
	for i := 0; i < b.N; i++ {
		eng, pairs := ablationFixture(b, cfg)
		var mm, fm, mok, fok int
		for _, p := range pairs {
			st, err := eng.LookupWith(cfg, p.LookupOrigin, p.Key, 0)
			if err != nil {
				b.Fatal(err)
			}
			mm += st.Messages
			if st.Found {
				mok++
			}
			holds := func(n int) bool {
				_, ok := eng.Stored(n, p.Key)
				return ok
			}
			fr, err := unstructured.Flood(eng.Overlay(), holds, p.LookupOrigin, 5, 0)
			if err != nil {
				b.Fatal(err)
			}
			fm += fr.Messages
			if fr.Found {
				fok++
			}
		}
		n := float64(len(pairs))
		mpilMsgs, floodMsgs = float64(mm)/n, float64(fm)/n
		mpilPct, floodPct = 100*float64(mok)/n, 100*float64(fok)/n
	}
	b.ReportMetric(mpilMsgs, "MPIL-msgs/lookup")
	b.ReportMetric(floodMsgs, "flood-msgs/lookup")
	b.ReportMetric(mpilPct, "MPIL-success-%")
	b.ReportMetric(floodPct, "flood-success-%")
}

// BenchmarkBaselineRandomWalkVsMPIL contrasts MPIL against k random
// walkers with an equal walker budget (walkers = max_flows).
func BenchmarkBaselineRandomWalkVsMPIL(b *testing.B) {
	cfg := mpil.Config{Space: idspace.MustSpace(4), MaxFlows: 10, PerFlowReplicas: 3, DuplicateSuppression: true}
	rng := rand.New(rand.NewSource(5))
	var walkMsgs, walkPct float64
	for i := 0; i < b.N; i++ {
		eng, pairs := ablationFixture(b, cfg)
		var wm, wok int
		for _, p := range pairs {
			holds := func(n int) bool {
				_, ok := eng.Stored(n, p.Key)
				return ok
			}
			wr, err := unstructured.RandomWalk(eng.Overlay(), holds, p.LookupOrigin, cfg.MaxFlows, 50, 0, rng)
			if err != nil {
				b.Fatal(err)
			}
			wm += wr.Messages
			if wr.Found {
				wok++
			}
		}
		n := float64(len(pairs))
		walkMsgs, walkPct = float64(wm)/n, 100*float64(wok)/n
	}
	b.ReportMetric(walkMsgs, "walk-msgs/lookup")
	b.ReportMetric(walkPct, "walk-success-%")
}

// BenchmarkServiceInsert measures raw public-API insertion throughput.
func BenchmarkServiceInsert(b *testing.B) {
	ov, err := RandomOverlay(1000, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(ov)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Insert(i%ov.N(), RandomID(rng), nil)
	}
}

// BenchmarkServiceLookup measures raw public-API lookup throughput.
func BenchmarkServiceLookup(b *testing.B) {
	ov, err := RandomOverlay(1000, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(ov)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := make([]ID, 256)
	for i := range keys {
		keys[i] = RandomID(rng)
		svc.Insert(rng.Intn(ov.N()), keys[i], nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Lookup(i%ov.N(), keys[i%len(keys)])
	}
}
