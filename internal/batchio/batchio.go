// Package batchio coalesces queued frames into vectored writes: the one
// writer loop behind every connection in the serving stack. Both halves
// of a connection live in internal/rpc — the served half the client and
// peer listeners run for each accepted connection (rpc.Listener) and the
// calling half every outbound connection runs (rpc.Conn) — and each runs
// its writer through WriteLoop.
//
// A producer encodes each frame into a pooled buffer and sends a record
// carrying it down a channel. The consumer blocks for the first frame, then
// greedily drains whatever else is already queued — bounded by a frame
// count and a byte budget — and hands the whole run to the kernel as one
// writev(2) via net.Buffers. A pipelining peer's frames therefore cost
// about one syscall per batch instead of one per frame, and the caps
// keep a single flush from monopolizing the socket (or pinning an
// unbounded amount of pooled memory) when the queue is deep.
//
// Callers that each block for their own reply do not queue ahead of the
// writer: each caller's frame wakes it, and the callers woken by the
// previous batch's replies are runnable but have not run yet, so the
// drain finds the queue empty and every write carries one frame. The
// first time a drain finds the queue empty, the writer therefore yields
// the processor once (runtime.Gosched) and drains again, letting those
// callers queue into the same batch. A yield with nothing else runnable
// returns at once, so a lone frame is still written immediately; there
// is no timer.
//
// The writer appends into slices it owns and reuses, so it runs
// allocation-free in steady state — the same buffer discipline as
// internal/wire and internal/wal.
package batchio

import (
	"net"
	"runtime"
	"time"

	"discovery/internal/metrics"
)

// The coalescing budget: at most MaxFrames frames and roughly MaxBytes
// bytes per vectored write. 64 frames comfortably covers a deep
// pipelining burst, and 256 KiB stays well under typical socket buffer
// sizes so one batch rarely blocks mid-write.
const (
	MaxFrames = 64
	MaxBytes  = 256 << 10
)

// ReadBufferSize sizes the buffered reader on every connection, so a
// pipelined burst decodes several frames per read(2) — the read-side
// twin of the coalesced writer.
const ReadBufferSize = 32 << 10

// DefaultWriteTimeout bounds one vectored response write on the two
// listeners. A peer that stops reading trips it and is disconnected.
const DefaultWriteTimeout = 30 * time.Second

// Stats meters a WriteLoop's coalescing: vectored writes issued, frames
// and bytes flushed, and the frames-per-write distribution (the
// coalescing ratio). The metric fields are nil-safe, so a zero Stats —
// or a nil *Stats — meters nothing; observation happens only after a
// successful write.
type Stats struct {
	Writes         *metrics.Counter
	Frames         *metrics.Counter
	Bytes          *metrics.Counter
	FramesPerWrite *metrics.Histogram
}

// observe records one successful vectored write of frames totalling n
// bytes.
func (st *Stats) observe(frames int, n int) {
	if st == nil {
		return
	}
	st.Writes.Inc()
	st.Frames.Add(uint64(frames))
	st.Bytes.Add(uint64(n))
	st.FramesPerWrite.Observe(int64(frames))
}

// collect gathers one coalesced write batch from ch: it blocks until a
// first frame arrives, then drains already-queued frames without
// blocking, stopping at MaxFrames frames or once MaxBytes bytes have
// been gathered (the first frame always counts, so a single oversized
// frame still forms a batch of one). The first time the drain finds the
// queue empty it yields once and drains again (see the package doc).
// Frame records are appended to *slots — for returning buffers to their
// pool after the write — and their encoded bytes, extracted by buf, to
// *bufs, the writev argument.
//
// A queue ends one of two ways. A listener's response queue has one
// owner who closes ch after the last producer is done (dead is nil).
// An outbound connection's request queue has any number of racing
// producers, so ch is never closed; dead is closed instead, producers
// stop offering, and whatever they queued the instant before is still
// collected. Either way collect reports false when the queue has ended
// and nothing was collected; an end that lands mid-drain still returns
// the partial batch, and the next call then reports false.
func collect[F any](ch <-chan F, dead <-chan struct{}, slots *[]F, bufs *net.Buffers, buf func(F) []byte) bool {
	var f F
	var ok bool
	select {
	case f, ok = <-ch:
	case <-dead:
		// One more non-blocking look: a producer that won the race may
		// have queued a frame the instant before death.
		select {
		case f, ok = <-ch:
		default:
		}
	}
	if !ok {
		return false
	}
	b := buf(f)
	*slots = append(*slots, f)
	*bufs = append(*bufs, b)
	total := len(b)
	yielded := false
	for len(*slots) < MaxFrames && total < MaxBytes {
		select {
		case f, ok := <-ch:
			if !ok {
				return true
			}
			b := buf(f)
			*slots = append(*slots, f)
			*bufs = append(*bufs, b)
			total += len(b)
		default:
			if yielded {
				return true
			}
			yielded = true
			runtime.Gosched()
		}
	}
	return true
}

// WriteLoop is the coalescing writer every connection runs: it drains ch
// batch by batch (collect) until the queue ends, flushing each batch as
// one vectored write with a fresh write deadline, and hands every frame
// record to put for recycling. The first failed or timed-out write
// calls onBroken exactly once — the hook severs the connection — and
// the loop keeps draining (and recycling) without writing, so producers
// never block on a dead peer. WriteLoop returns when the queue has ended
// (see collect) and is drained. onFlushed, when non-nil, observes each
// batch right after its successful vectored write and before the frames
// are recycled, which is where enqueue→flush spans are measured; it is
// not called for batches discarded on a broken connection. st, when
// non-nil, meters each successful flush (see Stats).
func WriteLoop[F any](nc net.Conn, ch <-chan F, dead <-chan struct{}, timeout time.Duration, buf func(F) []byte, put func(F), onBroken func(error), onFlushed func([]F), st *Stats) {
	broken := false
	var slots []F
	// bufs is declared once: WriteTo takes its address, so a header
	// declared per batch would escape to the heap on every batch.
	var backing, bufs net.Buffers
	for {
		slots = slots[:0]
		bufs = backing[:0]
		if !collect(ch, dead, &slots, &bufs, buf) {
			return
		}
		// WriteTo consumes the bufs header as it flushes; keep the grown
		// backing array so the next batch reuses its capacity.
		backing = bufs
		if !broken {
			total := 0
			if st != nil {
				for _, b := range bufs {
					total += len(b)
				}
			}
			nc.SetWriteDeadline(time.Now().Add(timeout)) //nolint:errcheck // surfaced by WriteTo
			if _, err := bufs.WriteTo(nc); err != nil {
				broken = true
				onBroken(err)
			} else {
				st.observe(len(slots), total)
				if onFlushed != nil {
					onFlushed(slots)
				}
			}
		}
		for _, f := range slots {
			put(f)
		}
	}
}
