// Command repro regenerates the tables and figures of Ko & Gupta,
// "Perturbation-Resistant and Overlay-Independent Resource Discovery"
// (DSN 2005), printing the same rows/series the paper reports.
//
// Usage:
//
//	repro [-scale quick|medium|paper] [-seed N] [-format text|csv|json] <experiment>
//	repro [-format text|csv|json] list
//
// where experiment is one of: fig1 fig7 fig8 fig9 fig10 fig11 fig12
// table1 table2 table3 ablations all, and list enumerates them with
// descriptions. ablations runs one fixed overlay at every scale.
// The default text format is the historical human-readable output; csv
// and json emit the same tables machine-readably (timings move to
// stderr so stdout stays pipeable).
//
// Absolute numbers come from this repository's simulators (see
// EXPERIMENTS.md for the substitutions); the shapes are what reproduce
// the paper. The cells of each sweep run on every core (GOMAXPROCS) and
// are merged in loop order, so the output is the same at any core count.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"discovery/internal/experiments"
	"discovery/internal/metrics"
)

func main() {
	os.Exit(run())
}

// experimentOrder is the canonical sequence, used by "all" and "list".
var experimentOrder = []string{
	"fig7", "fig8", "fig9", "table1", "table2", "table3",
	"fig10", "fig1", "fig11", "fig12", "ablations",
}

// descriptions feeds the list subcommand.
var descriptions = map[string]string{
	"fig1":      "effect of perturbation on MSPastry success rate",
	"fig7":      "expected number of local maxima, random regular topologies",
	"fig8":      "expected number of replicas, complete topologies",
	"fig9":      "MPIL insertion behavior vs overlay size",
	"fig10":     "MPIL lookup latency and traffic",
	"fig11":     "success rate under perturbation, all variants",
	"fig12":     "lookup traffic and total traffic under flapping",
	"table1":    "MPIL lookup success rate grid, power-law overlays",
	"table2":    "MPIL lookup success rate grid, random overlays",
	"table3":    "actual number of flows of lookups",
	"ablations": "MPIL design choices and unstructured search, static overlay",
	"all":       "every experiment above, in order",
}

func run() int {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick, medium, or paper")
	seed := flag.Int64("seed", 1, "root RNG seed")
	format := flag.String("format", "text", "output format: text, csv, or json")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: repro [-scale quick|medium|paper] [-seed N] [-format text|csv|json] <fig1|fig7|fig8|fig9|fig10|fig11|fig12|table1|table2|table3|ablations|all>\n"+
				"       repro [-format text|csv|json] list\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		return 2
	}
	// Validate the format up front (newEmitter is the single source of
	// truth for the accepted names) so a typo is a usage error.
	if _, err := newEmitter(*format, ""); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		flag.Usage()
		return 2
	}
	if flag.Arg(0) == "list" {
		if err := list(*format); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			return 2
		}
		return 0
	}

	static, perturbScale, err := scales(*scaleFlag, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		return 2
	}

	experimentsByName := map[string]func(emitter, experiments.StaticScale, experiments.PerturbScale) error{
		"fig1":  func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error { return fig1(em, p) },
		"fig7":  func(em emitter, _ experiments.StaticScale, _ experiments.PerturbScale) error { return fig7(em) },
		"fig8":  func(em emitter, _ experiments.StaticScale, _ experiments.PerturbScale) error { return fig8(em) },
		"fig9":  func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error { return fig9(em, s) },
		"fig10": func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error { return fig10(em, s) },
		"fig11": func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error { return fig11(em, p) },
		"fig12": func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error { return fig12(em, p) },
		"table1": func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error {
			return lookupTable(em, s, experiments.TopoPowerLaw, "Table 1 (power-law)")
		},
		"table2": func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error {
			return lookupTable(em, s, experiments.TopoRandom, "Table 2 (random)")
		},
		"table3": func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error { return table3(em, s) },
		"ablations": func(em emitter, s experiments.StaticScale, p experiments.PerturbScale) error {
			return ablations(em, s.Seed)
		},
	}
	runOne := func(n string) error {
		em, err := newEmitter(*format, n)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := experimentsByName[n](em, static, perturbScale); err != nil {
			return err
		}
		em.Done(n, time.Since(start))
		return em.Err()
	}
	name := flag.Arg(0)
	if name == "all" {
		for _, n := range experimentOrder {
			if err := runOne(n); err != nil {
				fmt.Fprintln(os.Stderr, "repro:", err)
				return 1
			}
		}
		return 0
	}
	if _, ok := experimentsByName[name]; !ok {
		flag.Usage()
		return 2
	}
	if err := runOne(name); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		return 1
	}
	return 0
}

// list enumerates the experiments in the requested format.
func list(format string) error {
	em, err := newEmitter(format, "list")
	if err != nil {
		return err
	}
	tb := metrics.NewTable("experiment", "description")
	for _, n := range experimentOrder {
		tb.AddRow(n, descriptions[n])
	}
	tb.AddRow("all", descriptions["all"])
	em.Table(tb)
	return em.Err()
}

func scales(name string, seed int64) (experiments.StaticScale, experiments.PerturbScale, error) {
	var st experiments.StaticScale
	var pt experiments.PerturbScale
	switch name {
	case "quick":
		st, pt = experiments.QuickStaticScale(), experiments.QuickPerturbScale()
	case "medium":
		st = experiments.StaticScale{
			Sizes:            []int{1000, 2000, 4000},
			GraphsPerSize:    4,
			RequestsPerGraph: 100,
			RandomDegree:     100,
		}
		pt = experiments.MediumPerturbScale()
	case "paper":
		st, pt = experiments.PaperStaticScale(), experiments.PaperPerturbScale()
	default:
		return st, pt, fmt.Errorf("unknown scale %q", name)
	}
	st.Seed = seed
	pt.Seed = seed
	return st, pt, nil
}

func fig7(em emitter) error {
	ns := []int{4000, 8000, 16000}
	rows, err := experiments.RunFig7(ns)
	if err != nil {
		return err
	}
	em.Title("Figure 7: expected number of local maxima, random regular topologies")
	tb := metrics.NewTable("neighbors", "4000 nodes", "8000 nodes", "16000 nodes")
	for _, r := range rows {
		tb.AddRow(r.Neighbors, fmt.Sprintf("%.1f", r.Maxima[0]), fmt.Sprintf("%.1f", r.Maxima[1]), fmt.Sprintf("%.1f", r.Maxima[2]))
	}
	em.Table(tb)
	return nil
}

func fig8(em emitter) error {
	rows, err := experiments.RunFig8()
	if err != nil {
		return err
	}
	em.Title("Figure 8: expected number of replicas, complete topologies")
	tb := metrics.NewTable("nodes", "replicas")
	for _, r := range rows {
		tb.AddRow(r.N, fmt.Sprintf("%.4f", r.Replicas))
	}
	em.Table(tb)
	return nil
}

func fig9(em emitter, scale experiments.StaticScale) error {
	em.Title("Figure 9: MPIL insertion behavior (max_flows 30, 5 per-flow replicas)")
	for _, kind := range []experiments.TopoKind{experiments.TopoPowerLaw, experiments.TopoRandom} {
		rows, err := experiments.RunFig9(scale, kind)
		if err != nil {
			return err
		}
		em.Section(fmt.Sprintf("%v overlays", kind))
		tb := metrics.NewTable("nodes", "avg replicas", "avg traffic", "duplicate msgs")
		for _, r := range rows {
			tb.AddRow(r.N, fmt.Sprintf("%.1f", r.Replicas), fmt.Sprintf("%.1f", r.Traffic), fmt.Sprintf("%.0f", r.Duplicates))
		}
		em.Table(tb)
	}
	return nil
}

func lookupTable(em emitter, scale experiments.StaticScale, kind experiments.TopoKind, title string) error {
	rows, err := experiments.RunLookupTable(scale, kind)
	if err != nil {
		return err
	}
	em.Title(fmt.Sprintf("%s: MPIL lookup success rate (%%)", title))
	tb := metrics.NewTable("nodes", "max flows", "r=1", "r=2", "r=3", "r=4", "r=5")
	for _, r := range rows {
		tb.AddRow(r.N, r.MaxFlows,
			fmt.Sprintf("%.1f", r.SuccessPct[0]), fmt.Sprintf("%.1f", r.SuccessPct[1]),
			fmt.Sprintf("%.1f", r.SuccessPct[2]), fmt.Sprintf("%.1f", r.SuccessPct[3]),
			fmt.Sprintf("%.1f", r.SuccessPct[4]))
	}
	em.Table(tb)
	return nil
}

func table3(em emitter, scale experiments.StaticScale) error {
	em.Title("Table 3: actual number of flows of lookups (max_flows 10, 3 per-flow replicas)")
	tb := metrics.NewTable("topology", "nodes", "actual flows")
	for _, kind := range []experiments.TopoKind{experiments.TopoPowerLaw, experiments.TopoRandom} {
		rows, err := experiments.RunTable3(scale, kind)
		if err != nil {
			return err
		}
		for _, r := range rows {
			tb.AddRow(kind, r.N, fmt.Sprintf("%.3f", r.Flows))
		}
	}
	em.Table(tb)
	return nil
}

func fig10(em emitter, scale experiments.StaticScale) error {
	em.Title("Figure 10: MPIL lookup latency and traffic (max_flows 10, 5 per-flow replicas)")
	tb := metrics.NewTable("topology", "nodes", "latency (hops)", "traffic (msgs)")
	for _, kind := range []experiments.TopoKind{experiments.TopoPowerLaw, experiments.TopoRandom} {
		rows, err := experiments.RunFig10(scale, kind)
		if err != nil {
			return err
		}
		for _, r := range rows {
			tb.AddRow(kind, r.N, fmt.Sprintf("%.2f", r.Hops), fmt.Sprintf("%.1f", r.Traffic))
		}
	}
	em.Table(tb)
	return nil
}

func fig1(em emitter, scale experiments.PerturbScale) error {
	em.Title("Figure 1: effect of perturbation on MSPastry (success rate %)")
	probs := experiments.PaperFlapProbs()
	out, err := experiments.RunFig1(scale, experiments.PaperFlapSettings(), probs)
	if err != nil {
		return err
	}
	header := []string{"idle:offline"}
	for _, p := range probs {
		header = append(header, fmt.Sprintf("p=%.1f", p))
	}
	tb := metrics.NewTable(header...)
	for _, set := range experiments.PaperFlapSettings() {
		row := []interface{}{set.Label}
		for _, r := range out[set.Label] {
			row = append(row, fmt.Sprintf("%.1f", r.SuccessPct))
		}
		tb.AddRow(row...)
	}
	em.Table(tb)
	return nil
}

func fig11(em emitter, scale experiments.PerturbScale) error {
	em.Title("Figure 11: success rate under perturbation, all variants (%)")
	probs := experiments.PaperFlapProbs()
	out, err := experiments.RunFig11(scale, experiments.Fig11FlapSettings(), probs)
	if err != nil {
		return err
	}
	variants := []experiments.Variant{
		experiments.VariantPastry, experiments.VariantPastryRR,
		experiments.VariantMPILDS, experiments.VariantMPILNoDS,
	}
	for _, set := range experiments.Fig11FlapSettings() {
		em.Section("idle:offline = " + set.Label)
		header := []string{"variant"}
		for _, p := range probs {
			header = append(header, fmt.Sprintf("p=%.1f", p))
		}
		tb := metrics.NewTable(header...)
		for _, v := range variants {
			row := []interface{}{v.String()}
			for _, r := range out[set.Label+"/"+v.String()] {
				row = append(row, fmt.Sprintf("%.1f", r.SuccessPct))
			}
			tb.AddRow(row...)
		}
		em.Table(tb)
	}
	return nil
}

func fig12(em emitter, scale experiments.PerturbScale) error {
	em.Title("Figure 12: lookup traffic and total traffic at idle:offline = 30:30")
	probs := experiments.PaperFlapProbs()
	out, err := experiments.RunFig12(scale, probs)
	if err != nil {
		return err
	}
	for _, panel := range []struct {
		title string
		pick  func(experiments.PerturbResult) uint64
	}{
		{"lookup messages", func(r experiments.PerturbResult) uint64 { return r.LookupTraffic }},
		{"total messages (incl. maintenance)", func(r experiments.PerturbResult) uint64 { return r.TotalTraffic }},
	} {
		em.Section(panel.title)
		header := []string{"variant"}
		for _, p := range probs {
			header = append(header, fmt.Sprintf("p=%.1f", p))
		}
		tb := metrics.NewTable(header...)
		for _, v := range []experiments.Variant{experiments.VariantPastry, experiments.VariantMPILDS, experiments.VariantMPILNoDS} {
			row := []interface{}{v.String()}
			for _, r := range out[v.String()] {
				row = append(row, panel.pick(r))
			}
			tb.AddRow(row...)
		}
		em.Table(tb)
	}
	return nil
}

// ablations prints success as a whole percentage (the fixture has 100
// keys) and messages per lookup to four significant digits.
func ablations(em emitter, seed int64) error {
	rows, err := experiments.RunAblations(seed)
	if err != nil {
		return err
	}
	em.Title("Ablations: one MPIL setting changed at a time, and unstructured search (1500-node power-law overlay, 100 keys)")
	tb := metrics.NewTable("variant", "success (%)", "msgs/lookup")
	for _, r := range rows {
		tb.AddRow(r.Variant, fmt.Sprintf("%.0f", r.SuccessPct), fmt.Sprintf("%.4g", r.Msgs))
	}
	em.Table(tb)
	return nil
}
