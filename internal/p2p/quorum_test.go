package p2p

import (
	"errors"
	"testing"
)

// TestQuorumFiresOnceWhenSettled pins the ack counter behind
// ReplicateAsync: done fires exactly once, with nil the moment the
// needed acks are in, or with an error the moment the calls still
// outstanding can no longer supply them — never later, never twice.
func TestQuorumFiresOnceWhenSettled(t *testing.T) {
	fail := errors.New("peer down")
	for _, tc := range []struct {
		name        string
		need, peers int
		results     []error
		firesAt     int // index of the result that settles it
		wantErr     bool
	}{
		{"first ack wins", 1, 2, []error{nil, nil}, 0, false},
		{"ack after a failure wins", 1, 2, []error{fail, nil}, 1, false},
		{"late failure is dropped", 1, 2, []error{nil, fail}, 0, false},
		{"all failed", 1, 2, []error{fail, fail}, 1, true},
		{"lost as soon as the rest cannot make it", 2, 2, []error{fail, nil}, 0, true},
		{"needs every ack", 2, 2, []error{nil, nil}, 1, false},
	} {
		fired, firedAt := 0, -1
		var got error
		step := 0
		q := &quorum{need: tc.need, peers: tc.peers, replicas: tc.peers + 1, done: func(err error) {
			fired++
			firedAt, got = step, err
		}}
		for step = range tc.results {
			q.result(tc.results[step])
		}
		if fired != 1 || firedAt != tc.firesAt || (got != nil) != tc.wantErr {
			t.Errorf("%s: fired %d times, at result %d, err %v; want once at %d, error %v",
				tc.name, fired, firedAt, got, tc.firesAt, tc.wantErr)
		}
	}
}
