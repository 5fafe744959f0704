package discovery

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestStoreMatchesMapModel drives the chunked store with random puts and
// deletes — enough keys to split chunks, enough deletes to empty them —
// and checks it against a map after every phase: point reads, the entry
// count, the key order, and walks resumed from arbitrary keys.
func TestStoreMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]ID, 3000)
	for i := range keys {
		keys[i] = NewID(fmt.Sprintf("store-%d", i))
	}
	var st store
	model := map[ID]uint32{}
	check := func(phase string) {
		t.Helper()
		if st.n != len(model) {
			t.Fatalf("%s: store counts %d entries, model %d", phase, st.n, len(model))
		}
		var sorted []ID
		for k, origin := range model {
			sorted = append(sorted, k)
			if e, ok := st.get(k); !ok || e.origin != origin || string(e.value) != fmt.Sprint(origin) {
				t.Fatalf("%s: get(%v) = %+v, %v; model has origin %d", phase, k, e, ok, origin)
			}
		}
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Less(sorted[b]) })
		for _, ch := range st.chunks {
			if len(ch) == 0 || len(ch) > maxChunk {
				t.Fatalf("%s: chunk of %d entries", phase, len(ch))
			}
		}
		for trial := 0; trial < 20; trial++ {
			from := keys[rng.Intn(len(keys))]
			i := sort.Search(len(sorted), func(j int) bool { return sorted[j].Cmp(from) >= 0 })
			var got []ID
			st.ascend(from, func(e *entry) bool { got = append(got, e.key); return true })
			if len(got) != len(sorted)-i {
				t.Fatalf("%s: walk from %v visits %d keys, want %d", phase, from, len(got), len(sorted)-i)
			}
			for j := range got {
				if got[j] != sorted[i+j] {
					t.Fatalf("%s: walk from %v out of order at %d", phase, from, j)
				}
			}
		}
	}
	for phase, delShare := range []int{10, 50, 95} {
		for op := 0; op < 20000; op++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(100) < delShare {
				_, had := model[k]
				if st.del(k) != had {
					t.Fatalf("phase %d: del(%v) disagrees with the model (had %v)", phase, k, had)
				}
				delete(model, k)
				continue
			}
			origin := uint32(rng.Intn(1000))
			st.put(k, origin, []byte(fmt.Sprint(origin)))
			model[k] = origin
		}
		check(fmt.Sprintf("phase %d (%d%% deletes)", phase, delShare))
	}
}
