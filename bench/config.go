package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"discovery/internal/experiments"
)

// workloads.json is the one file holding every phase length, rate,
// count and latency limit; the binary embeds it so a run cannot pick up
// a stale copy from the working directory.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	Nodes              int                    `json:"nodes"`
	NodeFlags          []string               `json:"node_flags"`
	ValueBytes         int                    `json:"value_bytes"`
	ClosedOutstanding  int                    `json:"closed_outstanding"`
	OpenMaxOutstanding int                    `json:"open_max_outstanding"`
	PreloadOutstanding int                    `json:"preload_outstanding"`
	SetupsPerRun       int                    `json:"setups_per_run"`
	WarmupLookups      int                    `json:"warmup_lookups"`
	TraceOneIn         int                    `json:"trace_one_in"`
	LookupLimitMs      float64                `json:"lookup_limit_ms"`
	MutationLimitMs    float64                `json:"mutation_limit_ms"`
	AuditSample        int                    `json:"audit_sample"`
	AuditPasses        int                    `json:"audit_passes"`
	RestartNode        int                    `json:"restart_node"`
	ProbeScale         float64                `json:"probe_scale"` // shrinks in-process probe counts; 1 in real runs
	Serving            map[string]servingSpec `json:"serving"`
	PaperSim           paperSpec              `json:"paper_sim"`
}

// servingSpec sizes one serving workload. Shares are of --seconds.
type servingSpec struct {
	ExtraNodeFlags    []string `json:"extra_node_flags"`
	PreloadKeys       int      `json:"preload_keys"`
	DeletePool        int      `json:"delete_pool"` // settled keys reserved for deletes
	ClosedShare       float64  `json:"closed_share"`
	OpenShare         float64  `json:"open_share"`
	OpenRate          float64  `json:"open_rate"`
	Mix               Mix      `json:"mix"`
	ZipfS             float64  `json:"zipf_s"`
	RestartCycles     int      `json:"restart_cycles"`
	RestartKeys       int      `json:"restart_keys"`
	RestartLookupRate float64  `json:"restart_lookup_rate"`
}

type perturbSpec struct {
	Scale    string    `json:"scale"`
	Settings []string  `json:"settings"`
	Probs    []float64 `json:"probs"`
}

type staticSpec struct {
	Sizes            []int `json:"sizes"`
	GraphsPerSize    int   `json:"graphs_per_size"`
	RequestsPerGraph int   `json:"requests_per_graph"`
	RandomDegree     int   `json:"random_degree"`
}

type paperSpec struct {
	OverlayNodes int     `json:"overlay_nodes"`
	RandomDegree int     `json:"random_degree"`
	InsertKeys   int     `json:"insert_keys"`
	ClosedShare  float64 `json:"closed_share"`
	OpenShare    float64 `json:"open_share"`
	OpenRate     float64 `json:"open_rate"`
	Rebuilds     int     `json:"rebuilds"`
	// ReplayLookups is how many of the first lookups a rebuilt Service
	// must reproduce exactly.
	ReplayLookups int         `json:"replay_lookups"`
	GoldenSeeds   int         `json:"golden_seeds"`
	Fig1          perturbSpec `json:"fig1"`
	Table2        staticSpec  `json:"table2"`
	Fig11         perturbSpec `json:"fig11"`
	Fig12         perturbSpec `json:"fig12"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return c, fmt.Errorf("workloads.json: %w", err)
	}
	return c, nil
}

func share(seconds int, s float64) time.Duration {
	return time.Duration(float64(seconds) * s * float64(time.Second))
}

func (p perturbSpec) scale(seed int64) (experiments.PerturbScale, error) {
	var s experiments.PerturbScale
	switch p.Scale {
	case "quick":
		s = experiments.QuickPerturbScale()
	case "medium":
		s = experiments.MediumPerturbScale()
	default:
		return s, fmt.Errorf("workloads.json: unknown perturb scale %q", p.Scale)
	}
	s.Seed = seed
	return s, nil
}

// flapSettings resolves setting labels against the paper's list.
func (p perturbSpec) flapSettings() ([]experiments.FlapSetting, error) {
	var out []experiments.FlapSetting
	for _, label := range p.Settings {
		found := false
		for _, fs := range experiments.PaperFlapSettings() {
			if fs.Label == label {
				out = append(out, fs)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("workloads.json: unknown flap setting %q", label)
		}
	}
	return out, nil
}
