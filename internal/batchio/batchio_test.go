package batchio

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"discovery/internal/metrics"
)

// deref is the frame accessor for a queue of plain buffers.
func deref(bp *[]byte) []byte { return *bp }

func frame(n int, fill byte) *[]byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return &b
}

func TestCollectDrainsQueuedFrames(t *testing.T) {
	ch := make(chan *[]byte, 16)
	for i := 0; i < 5; i++ {
		ch <- frame(10, byte(i))
	}
	var slots []*[]byte
	var bufs net.Buffers
	if !collect(ch, nil, &slots, &bufs, deref) {
		t.Fatal("Collect reported a closed channel")
	}
	if len(slots) != 5 || len(bufs) != 5 {
		t.Fatalf("collected %d slots / %d bufs, want 5", len(slots), len(bufs))
	}
	for i, b := range bufs {
		if len(b) != 10 || b[0] != byte(i) {
			t.Fatalf("buf %d out of order or corrupt: len=%d fill=%d", i, len(b), b[0])
		}
	}
}

func TestCollectFrameCap(t *testing.T) {
	ch := make(chan *[]byte, MaxFrames+6)
	for i := 0; i < MaxFrames+6; i++ {
		ch <- frame(10, 0)
	}
	var slots []*[]byte
	var bufs net.Buffers
	if !collect(ch, nil, &slots, &bufs, deref) {
		t.Fatal("Collect reported a closed channel")
	}
	if len(slots) != MaxFrames {
		t.Fatalf("frame cap %d collected %d frames", MaxFrames, len(slots))
	}
	// The rest stays queued for the next batch.
	slots, bufs = slots[:0], bufs[:0]
	if !collect(ch, nil, &slots, &bufs, deref) || len(slots) != 6 {
		t.Fatalf("second batch collected %d frames, want 6", len(slots))
	}
}

func TestCollectByteBudget(t *testing.T) {
	ch := make(chan *[]byte, 16)
	for i := 0; i < 6; i++ {
		ch <- frame(100<<10, 0)
	}
	var slots []*[]byte
	var bufs net.Buffers
	// 256 KiB: the first frame (100 KiB) is under budget, the second makes
	// 200 (still under), the third reaches 300 >= 256 after collection —
	// the budget is a stop condition checked before each extra receive.
	if !collect(ch, nil, &slots, &bufs, deref) {
		t.Fatal("Collect reported a closed channel")
	}
	if len(slots) != 3 {
		t.Fatalf("byte budget collected %d frames, want 3", len(slots))
	}
}

func TestCollectOversizeFirstFrame(t *testing.T) {
	ch := make(chan *[]byte, 4)
	ch <- frame(MaxBytes+1, 0)
	ch <- frame(10, 0)
	var slots []*[]byte
	var bufs net.Buffers
	// A first frame above the byte budget still forms a batch of one.
	if !collect(ch, nil, &slots, &bufs, deref) {
		t.Fatal("Collect reported a closed channel")
	}
	if len(slots) != 1 || len(bufs[0]) != MaxBytes+1 {
		t.Fatalf("oversize first frame batch: %d frames", len(slots))
	}
}

func TestCollectClosedChannel(t *testing.T) {
	ch := make(chan *[]byte, 4)
	ch <- frame(10, 0)
	ch <- frame(10, 0)
	close(ch)
	var slots []*[]byte
	var bufs net.Buffers
	// The queued frames drain as one final batch...
	if !collect(ch, nil, &slots, &bufs, deref) || len(slots) != 2 {
		t.Fatalf("final batch: %d frames", len(slots))
	}
	// ...then the closed channel reports done, without blocking.
	done := make(chan bool, 1)
	go func() {
		var s []*[]byte
		var b net.Buffers
		done <- collect(ch, nil, &s, &b, deref)
	}()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Collect returned a batch from a closed empty channel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Collect blocked on a closed channel")
	}
}

func TestCollectBlocksForFirstFrame(t *testing.T) {
	ch := make(chan *[]byte, 4)
	got := make(chan int, 1)
	go func() {
		var s []*[]byte
		var b net.Buffers
		collect(ch, nil, &s, &b, deref)
		got <- len(s)
	}()
	select {
	case <-got:
		t.Fatal("Collect returned before any frame arrived")
	case <-time.After(50 * time.Millisecond):
	}
	ch <- frame(10, 0)
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("late frame batch has %d frames", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Collect never woke for the first frame")
	}
}

// TestCollectZeroAllocs pins the writer loop's allocation discipline:
// with warm caller-owned slices, collecting a full batch allocates
// nothing.
func TestCollectZeroAllocs(t *testing.T) {
	ch := make(chan *[]byte, 64)
	frames := make([]*[]byte, 32)
	for i := range frames {
		frames[i] = frame(64, byte(i))
	}
	var slots []*[]byte
	var bufs net.Buffers
	// Warm the slices to full batch capacity.
	for _, f := range frames {
		ch <- f
	}
	collect(ch, nil, &slots, &bufs, deref)
	backing := bufs[:0]
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			ch <- f
		}
		slots = slots[:0]
		bufs = backing
		if !collect(ch, nil, &slots, &bufs, deref) || len(slots) != 32 {
			t.Fatal("collect failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Collect allocates %.1f per batch, want 0", allocs)
	}
}

// oneProc runs the rest of the test on one processor, so a goroutine
// made runnable by the test runs only once the test goroutine yields or
// blocks.
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	runtime.GC() // a collection mid-test could run the producers early
}

// TestCollectYieldJoinsRunnableProducer pins the point of the yield: a
// producer made runnable just before the drain — a caller just woken by
// its reply, about to send its next request — gets its frame into the
// same batch instead of the next write. The yield hands the processor
// to the producer, but the runtime's fairness check can hand it straight
// back (about one schedule in 61), so a trial may miss; without the
// yield every trial misses.
func TestCollectYieldJoinsRunnableProducer(t *testing.T) {
	oneProc(t)
	ch := make(chan *[]byte, 4)
	for trial := 0; trial < 5; trial++ {
		var slots []*[]byte
		var bufs net.Buffers
		ch <- frame(10, 1)
		go func(f *[]byte) { ch <- f }(frame(10, 2)) // runnable, not yet run
		if !collect(ch, nil, &slots, &bufs, deref) {
			t.Fatal("Collect reported a closed channel")
		}
		if len(slots) == 2 {
			return
		}
		<-ch // let the producer run and take its frame
	}
	t.Fatal("a runnable producer's frame never joined the batch")
}

// TestCollectLoneFrameReturnsAtOnce: with nothing else runnable the yield
// returns at once, so a lone frame is a batch of one with no wait. Every
// batch yields; a timer or sleep behind the yield would show as the
// elapsed time of a thousand batches.
func TestCollectLoneFrameReturnsAtOnce(t *testing.T) {
	oneProc(t)
	ch := make(chan *[]byte, 1)
	f := frame(10, 1)
	var slots []*[]byte
	var bufs net.Buffers
	const batches = 1000
	start := time.Now()
	for i := 0; i < batches; i++ {
		slots, bufs = slots[:0], bufs[:0]
		ch <- f
		if !collect(ch, nil, &slots, &bufs, deref) || len(slots) != 1 {
			t.Fatalf("batch %d: %d frames, want a batch of one", i, len(slots))
		}
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("%d lone-frame batches took %v; the drain waits", batches, el)
	}
}

// TestWriteLoopFlushesAndRecycles drives the shared writer loop over a
// pipe: frames arrive in order on the read side, every frame pointer
// comes back through put, and closing the channel ends the loop.
func TestWriteLoopFlushesAndRecycles(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	ch := make(chan *[]byte, 8)
	recycled := make(chan *[]byte, 8)
	reg := metrics.NewRegistry()
	st := &Stats{
		Writes:         reg.Counter("writes"),
		Frames:         reg.Counter("frames"),
		Bytes:          reg.Counter("bytes"),
		FramesPerWrite: reg.Histogram("frames_per_write", 1),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		WriteLoop(srv, ch, nil, time.Second, deref,
			func(bp *[]byte) { recycled <- bp },
			func(error) { srv.Close() }, nil, st)
	}()
	var want []byte
	for i := 0; i < 5; i++ {
		f := frame(10, byte(i))
		want = append(want, *f...)
		ch <- f
	}
	close(ch)
	got := make([]byte, len(want))
	client.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(client, got); err != nil {
		t.Fatalf("read flushed frames: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("frames corrupted or reordered through WriteLoop")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteLoop never returned after channel close")
	}
	if len(recycled) != 5 {
		t.Fatalf("recycled %d of 5 frames", len(recycled))
	}
	if st.Frames.Value() != 5 {
		t.Fatalf("Stats.Frames = %d, want 5", st.Frames.Value())
	}
	if w := st.Writes.Value(); w == 0 || w > 5 {
		t.Fatalf("Stats.Writes = %d, want 1..5", w)
	}
	if st.Bytes.Value() != uint64(len(want)) {
		t.Fatalf("Stats.Bytes = %d, want %d", st.Bytes.Value(), len(want))
	}
	if st.FramesPerWrite.Count() != st.Writes.Value() {
		t.Fatalf("FramesPerWrite.Count = %d, want %d", st.FramesPerWrite.Count(), st.Writes.Value())
	}
}

// TestWriteLoopSurvivesBrokenPeer pins the drain-after-error contract:
// once the peer breaks, onBroken fires exactly once and later frames
// are still recycled without blocking.
func TestWriteLoopSurvivesBrokenPeer(t *testing.T) {
	client, srv := net.Pipe()
	ch := make(chan *[]byte, 16)
	recycled := 0
	rec := make(chan struct{}, 16)
	broke := make(chan error, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		WriteLoop(srv, ch, nil, 50*time.Millisecond, deref,
			func(*[]byte) { rec <- struct{}{} },
			func(err error) { broke <- err; srv.Close() }, nil, nil)
	}()
	// The peer never reads: the first write trips the deadline.
	ch <- frame(10, 1)
	select {
	case <-broke:
	case <-time.After(5 * time.Second):
		t.Fatal("write deadline never tripped")
	}
	client.Close()
	// Producers keep sending; the loop must drain and recycle them all.
	for i := 0; i < 10; i++ {
		ch <- frame(10, byte(i))
	}
	close(ch)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteLoop wedged draining after the break")
	}
	close(rec)
	for range rec {
		recycled++
	}
	if recycled != 11 {
		t.Fatalf("recycled %d of 11 frames", recycled)
	}
	if len(broke) != 0 {
		t.Fatalf("onBroken fired %d extra times", len(broke)+1)
	}
}
