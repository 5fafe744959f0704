package wire

import (
	"bytes"
	"testing"

	"discovery/internal/idspace"
)

// FuzzDecode feeds arbitrary bytes to Decode. Decoding must never panic,
// and anything Decode accepts must re-encode to the exact same frame
// (the codec is canonical: accepted bytes are a fixed point).
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMsgs() {
		frame, err := m.Append(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[lenWords:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		var m Msg
		if err := m.Decode(body); err != nil {
			return
		}
		frame, err := m.Append(nil)
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
		if !bytes.Equal(frame[lenWords:], body) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", body, frame[lenWords:])
		}
		// Decoding into a dirty, previously-used Msg must agree with the
		// fresh decode (buffer reuse cannot leak prior state).
		reused := Msg{
			Value: append([]byte(nil), "stale-stale-stale"...),
			Stats: StatsReply{ShardRequests: []uint64{9, 9, 9, 9}},
		}
		if err := reused.Decode(body); err != nil {
			t.Fatalf("reused decode rejects what fresh decode accepted: %v", err)
		}
		frame2, err := reused.Append(nil)
		if err != nil {
			t.Fatalf("reused re-encode: %v", err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("reused decode diverges:\n fresh %x\n reuse %x", frame, frame2)
		}
	})
}

// FuzzPeerDecode feeds arbitrary bytes to Decode with peer-message frame
// seeds. Like FuzzDecode, anything accepted must be canonical: it must
// re-encode to the exact input bytes, from both a fresh and a dirty Msg.
func FuzzPeerDecode(f *testing.F) {
	for _, m := range sampleMsgs() {
		if !m.Type.IsPeerRequest() && m.Type != TPeerProbeOK && m.Type != TRepairOK && m.Type != TTransferOK && m.Type != TReplicateOK && m.Type != TWrongView {
			continue
		}
		frame, err := m.Append(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[lenWords:])
	}
	f.Add([]byte{byte(TRoute)})
	f.Add([]byte{byte(TTransfer), 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, body []byte) {
		var m Msg
		if err := m.Decode(body); err != nil {
			return
		}
		frame, err := m.Append(nil)
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
		if !bytes.Equal(frame[lenWords:], body) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", body, frame[lenWords:])
		}
		reused := Msg{
			Value: append([]byte(nil), "stale-stale-stale"...),
			Entries: []TransferEntry{
				{Origin: 9, Value: []byte("stale")},
			},
		}
		if err := reused.Decode(body); err != nil {
			t.Fatalf("reused decode rejects what fresh decode accepted: %v", err)
		}
		frame2, err := reused.Append(nil)
		if err != nil {
			t.Fatalf("reused re-encode: %v", err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("reused decode diverges:\n fresh %x\n reuse %x", frame, frame2)
		}
	})
}

// FuzzPeerRoundTrip builds structured peer messages from fuzzed fields,
// encodes them, and requires decode to reproduce the message exactly.
func FuzzPeerRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(7), uint64(0xABCD), uint32(1), []byte("key"), []byte("value"), uint32(3), uint8(1), uint64(0))
	f.Add(uint8(2), uint64(1), uint64(0), uint32(0), []byte(""), []byte(""), uint32(0), uint8(2), uint64(0xFEEDFACE))
	f.Add(uint8(5), uint64(9), uint64(1), uint32(2), []byte("k2"), []byte("entry-payload"), uint32(7), uint8(3), uint64(1))
	f.Fuzz(func(t *testing.T, ty uint8, reqID, cluster uint64, origin uint32, keySrc, value []byte, region uint32, kind uint8, traceID uint64) {
		types := []Type{TPeerProbe, TRoute, TRepair, TTransfer, TReplicate, TPeerProbeOK, TRepairOK, TTransferOK, TReplicateOK, TWrongView}
		m := Msg{
			Type:      types[int(ty)%len(types)],
			ReqID:     reqID,
			Cluster:   cluster,
			Held:      cluster >> 1,
			Key:       idspace.FromBytes(keySrc),
			Origin:    origin,
			RouteKind: []Type{TInsert, TLookup, TDelete}[int(kind)%3],
			Region:    region,
			Accepted:  region,
			Value:     value,
		}
		// Replicated mutations carry no lookup kind; keep the built
		// message canonical so Append never rejects it.
		if m.Type == TReplicate {
			m.RouteKind = []Type{TInsert, TDelete}[int(kind)%2]
		}
		// Trace trailers ride only on the peer requests that execute work;
		// kind's high bit picks traced/untraced so both layouts are fuzzed.
		if m.Type == TRoute || m.Type == TRepair || m.Type == TTransfer || m.Type == TReplicate {
			if kind&0x80 != 0 {
				m.Traced = true
				m.Trace = traceID
			}
		}
		if m.Type == TPeerProbe || m.Type == TPeerProbeOK {
			addr := keySrc
			if len(addr) > 1024 {
				addr = addr[:1024]
			}
			m.ClientAddr = addr
		}
		if m.Type == TTransfer || m.Type == TRepairOK {
			for i := uint32(0); i < region%4; i++ {
				m.Entries = append(m.Entries, TransferEntry{
					Origin: origin,
					Key:    idspace.FromBytes(append(keySrc, byte(i))),
					Value:  value,
				})
			}
		}
		// Cursor-bearing combinations, kept canonical: a TRepair may
		// carry any cursor; a TRepairOK carries one only with More set.
		if m.Type == TRepair {
			m.Cursor = RepairCursor{Shard: region % 8, Key: idspace.FromBytes(value)}
		}
		if m.Type == TRepairOK && kind%2 == 1 {
			m.More = true
			m.Cursor = RepairCursor{Shard: region % 8, Key: idspace.FromBytes(value)}
		}
		frame, err := m.Append(nil)
		if err != nil {
			if err == ErrOversize {
				return // oversize payloads are rejected by design
			}
			t.Fatalf("encode: %v", err)
		}
		var got Msg
		if err := got.Decode(frame[lenWords:]); err != nil {
			t.Fatalf("decode of own encoding failed: %v (frame %x)", err, frame)
		}
		again, err := got.Append(nil)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("round trip not stable:\n %x\n %x", frame, again)
		}
	})
}

// FuzzRoundTrip builds structured messages from fuzzed fields, encodes
// them, and requires decode to reproduce the message exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(7), []byte("key-material"), uint32(3), []byte("value"), false, int32(-1), uint64(12))
	f.Add(uint8(4), uint64(0), []byte(""), uint32(0), []byte(""), true, int32(9), uint64(0))
	f.Add(uint8(0x84), uint64(1), []byte("k"), uint32(2), []byte("v"), true, int32(0), uint64(3))
	f.Fuzz(func(t *testing.T, ty uint8, reqID uint64, keySrc []byte, origin uint32, value []byte, found bool, hops int32, n uint64) {
		types := []Type{TInsert, TLookup, TDelete, TStats, TInsertOK, TLookupOK, TDeleteOK, TStatsOK, TError, TMembers, TMembersOK, TWrongView}
		m := Msg{
			Type:    types[int(ty)%len(types)],
			ReqID:   reqID,
			Key:     idspace.FromBytes(keySrc),
			Origin:  origin,
			Value:   value,
			Insert:  InsertReply{Replicas: uint32(n), Messages: origin, Flows: uint32(n >> 32)},
			Lookup:  LookupReply{Found: found, FirstReplyHops: hops, Replies: uint32(n)},
			Deleted: uint32(n),
		}
		if m.Type == TStatsOK {
			shards := int(n % 64)
			m.Stats = StatsReply{Shards: uint32(shards), Inserts: n, Lookups: reqID, Found: n / 2}
			for i := 0; i < shards; i++ {
				m.Stats.ShardRequests = append(m.Stats.ShardRequests, n+uint64(i))
			}
		}
		if m.Type == TMembersOK || m.Type == TWrongView {
			m.Cluster = n
		}
		if m.Type == TMembersOK {
			m.Replication = origin%8 + 1
			addr := value
			if len(addr) > 1024 {
				addr = addr[:1024]
			}
			for i := 0; i < int(n%5); i++ {
				m.Members = append(m.Members, string(addr))
			}
		}
		frame, err := m.Append(nil)
		if err != nil {
			if err == ErrOversize && len(value)+headerLen+idspace.Bytes+4 > MaxFrame {
				return // oversize payloads are rejected by design
			}
			t.Fatalf("encode: %v", err)
		}
		var got Msg
		if err := got.Decode(frame[lenWords:]); err != nil {
			t.Fatalf("decode of own encoding failed: %v (frame %x)", err, frame)
		}
		again, err := got.Append(nil)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("round trip not stable:\n %x\n %x", frame, again)
		}
	})
}
