package experiments

import (
	"testing"
	"time"
)

func quickSetting(label string, idle, offline time.Duration) FlapSetting {
	return FlapSetting{Label: label, Idle: idle, Offline: offline}
}

func TestPerturbScaleValidation(t *testing.T) {
	if err := (PerturbScale{Nodes: 8, Requests: 10}).validate(); err == nil {
		t.Error("tiny node count accepted")
	}
	if err := (PerturbScale{Nodes: 100, Requests: 0}).validate(); err == nil {
		t.Error("zero requests accepted")
	}
	if err := QuickPerturbScale().validate(); err != nil {
		t.Error(err)
	}
}

func TestRunPerturbStaticBaseline(t *testing.T) {
	// With flapping probability 0 every variant must be near-perfect.
	scale := QuickPerturbScale()
	setting := quickSetting("30:30", 30*time.Second, 30*time.Second)
	for _, v := range []Variant{VariantPastry, VariantPastryRR, VariantMPILDS, VariantMPILNoDS} {
		r, err := RunPerturb(scale, setting, 0, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if r.SuccessPct < 95 {
			t.Errorf("%v: static success %.1f%%, want >= 95%%", v, r.SuccessPct)
		}
	}
}

func TestRunPerturbMPILBeatsPastryUnderHeavyFlapping(t *testing.T) {
	// The paper's central result (Figure 11): MPIL sustains a higher
	// success rate than MSPastry under heavy perturbation.
	scale := QuickPerturbScale()
	setting := quickSetting("30:30", 30*time.Second, 30*time.Second)
	const prob = 0.9
	pastryRes, err := RunPerturb(scale, setting, prob, VariantPastry)
	if err != nil {
		t.Fatal(err)
	}
	mpilRes, err := RunPerturb(scale, setting, prob, VariantMPILNoDS)
	if err != nil {
		t.Fatal(err)
	}
	if mpilRes.SuccessPct <= pastryRes.SuccessPct {
		t.Errorf("MPIL %.1f%% not above MSPastry %.1f%% at prob %.1f",
			mpilRes.SuccessPct, pastryRes.SuccessPct, prob)
	}
}

func TestRunPerturbTrafficAccounting(t *testing.T) {
	// Figure 12's two panels: MSPastry's total traffic (maintenance
	// included) dwarfs MPIL's, while MPIL spends more on lookups alone.
	scale := QuickPerturbScale()
	setting := quickSetting("30:30", 30*time.Second, 30*time.Second)
	const prob = 0.5
	pastryRes, err := RunPerturb(scale, setting, prob, VariantPastry)
	if err != nil {
		t.Fatal(err)
	}
	mpilRes, err := RunPerturb(scale, setting, prob, VariantMPILNoDS)
	if err != nil {
		t.Fatal(err)
	}
	if pastryRes.TotalTraffic < 10*mpilRes.TotalTraffic {
		t.Errorf("MSPastry total traffic %d not dominating MPIL's %d",
			pastryRes.TotalTraffic, mpilRes.TotalTraffic)
	}
	if mpilRes.LookupTraffic == 0 || pastryRes.LookupTraffic == 0 {
		t.Error("missing lookup traffic accounting")
	}
	if mpilRes.TotalTraffic != mpilRes.LookupTraffic {
		t.Error("MPIL reported maintenance traffic despite having none")
	}
}

func TestRunPerturbPerturbationHurtsPastry(t *testing.T) {
	// Figure 1's basic monotonicity: more flapping, less success, with a
	// drastic drop at long cycles.
	scale := QuickPerturbScale()
	setting := quickSetting("300:300", 300*time.Second, 300*time.Second)
	low, err := RunPerturb(scale, setting, 0.1, VariantPastry)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunPerturb(scale, setting, 1.0, VariantPastry)
	if err != nil {
		t.Fatal(err)
	}
	if high.SuccessPct >= low.SuccessPct {
		t.Errorf("success did not degrade: %.1f%% at 0.1 vs %.1f%% at 1.0",
			low.SuccessPct, high.SuccessPct)
	}
	if high.SuccessPct > 70 {
		t.Errorf("300:300 at prob 1.0 gives %.1f%%, want a drastic drop", high.SuccessPct)
	}
}

func TestRunPerturbShortCyclesMilder(t *testing.T) {
	// Figure 1: 45:15 is the mildest setting.
	scale := QuickPerturbScale()
	mild, err := RunPerturb(scale, quickSetting("45:15", 45*time.Second, 15*time.Second), 0.8, VariantPastry)
	if err != nil {
		t.Fatal(err)
	}
	harsh, err := RunPerturb(scale, quickSetting("300:300", 300*time.Second, 300*time.Second), 0.8, VariantPastry)
	if err != nil {
		t.Fatal(err)
	}
	if mild.SuccessPct <= harsh.SuccessPct {
		t.Errorf("45:15 (%.1f%%) not milder than 300:300 (%.1f%%)", mild.SuccessPct, harsh.SuccessPct)
	}
}

func TestRunFig1Structure(t *testing.T) {
	scale := QuickPerturbScale()
	settings := []FlapSetting{
		quickSetting("1:1", time.Second, time.Second),
		quickSetting("30:30", 30*time.Second, 30*time.Second),
	}
	probs := []float64{0.2, 0.8}
	out, err := RunFig1(scale, settings, probs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d series, want 2", len(out))
	}
	for label, series := range out {
		if len(series) != len(probs) {
			t.Errorf("series %q has %d points, want %d", label, len(series), len(probs))
		}
		for _, r := range series {
			if r.Variant != VariantPastry {
				t.Errorf("series %q contains variant %v", label, r.Variant)
			}
		}
	}
}

func TestVariantStrings(t *testing.T) {
	tests := map[Variant]string{
		VariantPastry:   "MSPastry",
		VariantPastryRR: "MSPastry with RR",
		VariantMPILDS:   "MPIL with DS",
		VariantMPILNoDS: "MPIL without DS",
	}
	for v, want := range tests {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

// BenchmarkPerturbCell runs one quick-scale MSPastry cell of the
// perturbation sweep (30:30 flapping, p = 0.5): network build, inserts,
// then lookups under maintenance. Pastry's maintenance loop dominates
// it, which makes it the microbenchmark of the Figure 1/11/12 drivers.
func BenchmarkPerturbCell(b *testing.B) {
	scale := QuickPerturbScale()
	setting := quickSetting("30:30", 30*time.Second, 30*time.Second)
	for i := 0; i < b.N; i++ {
		if _, err := RunPerturb(scale, setting, 0.5, VariantPastry); err != nil {
			b.Fatal(err)
		}
	}
}
