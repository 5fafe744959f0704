package server

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	discovery "discovery"
	"discovery/internal/idspace"
	"discovery/internal/wire"
)

// TestReplicatedAckJoinsLocalCommitAndQuorum pins replJoin: a replicated
// mutation is answered exactly once, only after BOTH its local commit and
// its replica quorum have landed, in whichever order they land; a quorum
// failure turns a committed reply into a replication error; and a quorum
// that settles before the fan-out call even returns (the caller's own
// goroutine) is as good as one that settles from a peer's reader.
func TestReplicatedAckJoinsLocalCommitAndQuorum(t *testing.T) {
	ov, err := discovery.CompleteOverlay(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := discovery.NewPool(ov, 2, discovery.WithSeed(1), discovery.WithMaxHops(8))
	if err != nil {
		t.Fatal(err)
	}
	// Each mutation's fan-out parks its completion here for the test to
	// fire; inline, when set, settles it before Replicate returns.
	fanouts := make(chan func(error), 16)
	var inline atomic.Pointer[error]
	srv, err := New(Config{Pool: pool, Logf: t.Logf,
		Replicate: func(_ wire.Type, _ idspace.ID, _ uint32, _ []byte, _ uint64, done func(error)) {
			if err := inline.Load(); err != nil {
				done(*err)
				return
			}
			fanouts <- done
		}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := discovery.NewID("replicated")
	type reply struct {
		err error
	}
	insert := func() <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			_, err := c.Insert(3, key, []byte("v"))
			ch <- reply{err}
		}()
		return ch
	}
	committed := func() bool { return pool.Lookup(5, key).Found }
	waitCommitted := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !committed() {
			if time.Now().After(deadline) {
				t.Fatal("local commit never landed")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Local commit first: no ack until the quorum lands.
	got := insert()
	done := <-fanouts
	waitCommitted()
	select {
	case r := <-got:
		t.Fatalf("acked before the quorum landed: %v", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	done(nil)
	if r := <-got; r.err != nil {
		t.Fatalf("quorum-committed insert: %v", r.err)
	}

	// Quorum failure after a local commit: an explicit replication error.
	got = insert()
	done = <-fanouts
	done(errors.New("quorum not reached"))
	if r := <-got; r.err == nil || !strings.Contains(r.err.Error(), "replication: quorum not reached") {
		t.Fatalf("insert without quorum: %v", r.err)
	}

	// Settled inline, success and failure.
	var won error
	inline.Store(&won)
	if r := <-insert(); r.err != nil {
		t.Fatalf("inline quorum: %v", r.err)
	}
	lost := errors.New("quorum impossible")
	inline.Store(&lost)
	if r := <-insert(); r.err == nil || !strings.Contains(r.err.Error(), "replication: quorum impossible") {
		t.Fatalf("inline quorum failure: %v", r.err)
	}

	// Lookups never fan out.
	if res, err := c.Lookup(5, key); err != nil || !res.Found {
		t.Fatalf("lookup: %+v %v", res, err)
	}
	select {
	case <-fanouts:
		t.Fatal("a lookup was fanned out")
	default:
	}
}

// TestReplicatedLocalFailureAnswersFirst: a mutation whose local half
// fails is answered at once with the storage error, before its fan-out
// settles; the fan-out's later failure changes nothing and races with
// nothing (run under -race).
func TestReplicatedLocalFailureAnswersFirst(t *testing.T) {
	ov, err := discovery.CompleteOverlay(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Region 0 of 2: keys owned by region 1 fail the local commit.
	pool, err := discovery.NewPool(ov, 2, discovery.WithRegion(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	fanouts := make(chan func(error), 1)
	srv, err := New(Config{Pool: pool, Logf: t.Logf,
		Replicate: func(_ wire.Type, _ idspace.ID, _ uint32, _ []byte, _ uint64, done func(error)) {
			fanouts <- done
		}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := discovery.NewID("foreign-0")
	for i := 1; discovery.OwnerOf(key, 2) != 1; i++ {
		key = discovery.NewID(fmt.Sprintf("foreign-%d", i))
	}
	if _, err := c.Insert(3, key, []byte("v")); err == nil || !strings.Contains(err.Error(), "storage:") {
		t.Fatalf("insert of a foreign key: %v, want a storage error", err)
	}
	(<-fanouts)(errors.New("quorum not reached"))
	if _, err := c.Stats(); err != nil {
		t.Fatalf("connection after the late quorum: %v", err)
	}
}
