package experiments

import "testing"

// TestAblationsShape states what the seed-1 ablation run shows on its
// static overlay.
func TestAblationsShape(t *testing.T) {
	rows, err := RunAblations(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ablationVariants)+2 {
		t.Fatalf("%d rows, want %d", len(rows), len(ablationVariants)+2)
	}
	by := map[string]AblationRow{}
	for _, r := range rows {
		by[r.Variant] = r
	}
	base, dsOff, equal := by["MPIL baseline"], by["DS off"], by["equal split"]
	flood, xor := by["flooding TTL 5"], by["XOR"]

	// §6.2: on a static overlay duplicate suppression only saves traffic.
	if base.SuccessPct != dsOff.SuccessPct || base.Msgs >= dsOff.Msgs {
		t.Errorf("DS on %+v, off %+v: want equal success and fewer messages with DS", base, dsOff)
	}
	// §4.3: the round-robin residue loses no quota at branches.
	if base.SuccessPct < equal.SuccessPct {
		t.Errorf("round-robin %.0f%% < equal split %.0f%%", base.SuccessPct, equal.SuccessPct)
	}
	// §1: flooding finds at least as much, for an order of magnitude more
	// traffic.
	if flood.SuccessPct < base.SuccessPct || flood.Msgs < 10*base.Msgs {
		t.Errorf("flooding %+v against MPIL %+v: want success >= and >= 10x the messages", flood, base)
	}
	// §4.2: XOR never ties, so it branches into fewer flows.
	if xor.Msgs >= base.Msgs {
		t.Errorf("XOR %.2f msgs/lookup, common digits %.2f: want fewer", xor.Msgs, base.Msgs)
	}
}
