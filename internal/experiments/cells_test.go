package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn with GOMAXPROCS set to n, restoring it afterwards.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestForEachCellVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 100} {
		withProcs(4, func() {
			calls := make([]atomic.Int32, n)
			if err := forEachCell(n, func(i int) error {
				calls[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d: index %d ran %d times, want 1", n, i, c)
				}
			}
		})
	}
}

func TestForEachCellLowestErrorWins(t *testing.T) {
	// Index 7 fails first in time; index 3 fails only after it. The serial
	// loop would have stopped at 3, so 3's error is the one returned.
	withProcs(4, func() {
		sevenFailed := make(chan struct{})
		var ran [10]atomic.Bool
		err := forEachCell(len(ran), func(i int) error {
			ran[i].Store(true)
			switch i {
			case 3:
				<-sevenFailed
				return fmt.Errorf("cell %d", i)
			case 7:
				close(sevenFailed)
				return fmt.Errorf("cell %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3" {
			t.Fatalf("err = %v, want cell 3's", err)
		}
		for i := 0; i < 3; i++ {
			if !ran[i].Load() {
				t.Errorf("index %d below the failure never ran", i)
			}
		}
	})
}

func TestForEachCellSerialStopsAtFirstError(t *testing.T) {
	withProcs(1, func() {
		boom := errors.New("boom")
		ran := 0
		err := forEachCell(10, func(i int) error {
			ran++
			if i == 3 {
				return boom
			}
			return nil
		})
		if err != boom || ran != 4 {
			t.Fatalf("err = %v after %d cells, want boom after 4", err, ran)
		}
	})
}

// TestCellsMatchSerial runs every sweep driver on one core and on four and
// requires identical results: the same series, the same points in the same
// order, and bit-identical float means.
func TestCellsMatchSerial(t *testing.T) {
	pscale := PerturbScale{Nodes: 40, Requests: 6, Seed: 3}
	settings := []FlapSetting{
		quickSetting("1:1", time.Second, time.Second),
		quickSetting("30:30", 30*time.Second, 30*time.Second),
	}
	probs := []float64{0.3, 0.9}
	sscale := StaticScale{Sizes: []int{60, 90}, GraphsPerSize: 3, RequestsPerGraph: 10, RandomDegree: 8, Seed: 3}

	run := func() map[string]any {
		out := map[string]any{}
		keep := func(name string, v any, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = v
		}
		fig1, err := RunFig1(pscale, settings, probs)
		keep("fig1", fig1, err)
		fig11, err := RunFig11(pscale, settings, probs)
		keep("fig11", fig11, err)
		fig12, err := RunFig12(pscale, probs)
		keep("fig12", fig12, err)
		for _, kind := range []TopoKind{TopoPowerLaw, TopoRandom} {
			table, err := RunLookupTable(sscale, kind)
			keep(fmt.Sprint("table ", kind), table, err)
			fig9, err := RunFig9(sscale, kind)
			keep(fmt.Sprint("fig9 ", kind), fig9, err)
			fig10, err := RunFig10(sscale, kind)
			keep(fmt.Sprint("fig10 ", kind), fig10, err)
			table3, err := RunTable3(sscale, kind)
			keep(fmt.Sprint("table3 ", kind), table3, err)
		}
		ablations, err := RunAblations(3)
		keep("ablations", ablations, err)
		return out
	}
	var serial, parallel map[string]any
	withProcs(1, func() { serial = run() })
	withProcs(4, func() { parallel = run() })

	for name, want := range serial {
		if got := parallel[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s on 4 procs differs from 1 proc:\n got %+v\nwant %+v", name, got, want)
		}
	}
	if fig11 := serial["fig11"].(map[string][]PerturbResult); len(fig11) != 2*4 {
		t.Errorf("fig11 has %d series, want 8", len(fig11))
	}

	// The merge is in loop order: each fig1 series lists its points as
	// the serial loop over probs produced them.
	fig1 := parallel["fig1"].(map[string][]PerturbResult)
	for _, set := range settings {
		for i, p := range probs {
			want, err := RunPerturb(pscale, set, p, VariantPastry)
			if err != nil {
				t.Fatal(err)
			}
			if got := fig1[set.Label][i]; got != want {
				t.Errorf("fig1 %s point %d = %+v, want %+v", set.Label, i, got, want)
			}
		}
	}
}
