package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"discovery/internal/idspace"
)

// sampleMsgs returns one well-formed message of every type.
func sampleMsgs() []Msg {
	key := idspace.FromString("object-7")
	return []Msg{
		{Type: TInsert, ReqID: 1, Key: key, Origin: 42, Value: []byte("tcp://node42:7700")},
		{Type: TInsert, ReqID: 2, Key: key, Origin: OriginAuto, Value: nil},
		{Type: TLookup, ReqID: 3, Key: key, Origin: 7},
		{Type: TDelete, ReqID: 4, Key: key, Origin: 42},
		{Type: TStats, ReqID: 5},
		{Type: TInsertOK, ReqID: 1, Insert: InsertReply{Replicas: 9, Messages: 31, Duplicates: 2, Flows: 10, Dropped: 1}},
		{Type: TLookupOK, ReqID: 3, Lookup: LookupReply{Found: true, FirstReplyHops: 4, Replies: 3, Messages: 17, Duplicates: 1, Flows: 8}},
		{Type: TLookupOK, ReqID: 6, Lookup: LookupReply{Found: false, FirstReplyHops: -1}},
		{Type: TDeleteOK, ReqID: 4, Deleted: 5},
		{Type: TStatsOK, ReqID: 5, Stats: StatsReply{
			Shards: 3, Inserts: 100, Lookups: 200, Deletes: 3, Found: 180,
			ShardRequests: []uint64{101, 99, 103},
		}},
		{Type: TMembers, ReqID: 19},
		{Type: TMembersOK, ReqID: 19, Cluster: 0xA1, Replication: 3,
			Members: []string{"127.0.0.1:7701", "", "127.0.0.1:7703"}},
		{Type: TMembersOK, ReqID: 20, Cluster: 0xA2, Replication: 1, Members: nil},
		{Type: TWrongView, ReqID: 21, Cluster: 0xBEEF},
		{Type: TError, ReqID: 9, Value: []byte("origin 9000 out of range")},
		{Type: TPeerProbe, ReqID: 10, Cluster: 0xDEADBEEF01234567, Origin: 2, ClientAddr: []byte("127.0.0.1:7702")},
		{Type: TPeerProbe, ReqID: 22, Cluster: 0xDEADBEEF01234567, Origin: 1},
		{Type: TPeerProbeOK, ReqID: 10, Cluster: 0xDEADBEEF01234567, Origin: 0, Held: 4096, ClientAddr: []byte("127.0.0.1:7700")},
		{Type: TPeerProbeOK, ReqID: 23, Cluster: 0xDEADBEEF01234567, Origin: 2, Held: 1},
		{Type: TRoute, ReqID: 11, RouteKind: TInsert, Cluster: 0xA1, Key: key, Origin: 1, Value: []byte("tcp://node1:7700")},
		{Type: TRoute, ReqID: 12, RouteKind: TInsert, Cluster: 0xA1, Key: key, Origin: 1, Value: nil},
		{Type: TRoute, ReqID: 13, RouteKind: TLookup, Cluster: 0xA1, Key: key, Origin: 0},
		{Type: TRoute, ReqID: 14, RouteKind: TDelete, Cluster: 0xA1, Key: key, Origin: 2},
		{Type: TRoute, ReqID: 24, RouteKind: TInsert, Cluster: 0xA1, Key: key, Origin: 1,
			Traced: true, Trace: 0xFEEDFACECAFEF00D, Value: []byte("tcp://node1:7700")},
		{Type: TRoute, ReqID: 25, RouteKind: TLookup, Cluster: 0xA1, Key: key, Origin: 0,
			Traced: true, Trace: 1},
		{Type: TRepair, ReqID: 15, Cluster: 0xA1, Region: 1},
		{Type: TRepair, ReqID: 26, Cluster: 0xA1, Region: 3, Traced: true, Trace: 0x1122334455667788},
		{Type: TRepair, ReqID: 18, Cluster: 0xA1, Region: 2,
			Cursor: RepairCursor{Shard: 3, Key: idspace.FromString("resume-here")}},
		{Type: TRepairOK, ReqID: 15, Region: 1, Entries: []TransferEntry{
			{Origin: 2, Key: key, Value: []byte("v0")},
			{Origin: 2, Key: idspace.FromString("object-8"), Value: nil},
		}},
		{Type: TRepairOK, ReqID: 18, Region: 2, More: true,
			Cursor:  RepairCursor{Shard: 1, Key: idspace.FromString("next-page")},
			Entries: []TransferEntry{{Origin: 1, Key: key, Value: []byte("paged")}}},
		{Type: TTransfer, ReqID: 16, Cluster: 0xA1, Entries: []TransferEntry{
			{Origin: 0, Key: key, Value: []byte("moved")},
		}},
		{Type: TTransfer, ReqID: 17, Cluster: 0xA1, Entries: nil},
		{Type: TTransfer, ReqID: 27, Cluster: 0xA1, Traced: true, Trace: 0xABCD,
			Entries: []TransferEntry{{Origin: 1, Key: key, Value: []byte("traced")}}},
		{Type: TTransferOK, ReqID: 16, Accepted: 1},
		{Type: TReplicate, ReqID: 28, RouteKind: TInsert, Cluster: 0xA1, Key: key, Origin: 1,
			Value: []byte("tcp://node1:7700")},
		{Type: TReplicate, ReqID: 29, RouteKind: TInsert, Cluster: 0xA1, Key: key, Origin: 1, Value: nil},
		{Type: TReplicate, ReqID: 30, RouteKind: TDelete, Cluster: 0xA1, Key: key, Origin: 2},
		{Type: TReplicate, ReqID: 31, RouteKind: TInsert, Cluster: 0xA1, Key: key, Origin: 1,
			Traced: true, Trace: 0xFEEDFACECAFEF00D, Value: []byte("replicated")},
		{Type: TReplicateOK, ReqID: 28},
	}
}

// entriesEq compares transfer entry lists field by field.
func entriesEq(a, b []TransferEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Origin != b[i].Origin ||
			a[i].Key != b[i].Key || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// eq compares only the fields the wire carries for the message's type, so
// reused scratch in unrelated fields does not trip the comparison.
func eq(t *testing.T, a, b *Msg) {
	t.Helper()
	if a.Type != b.Type || a.ReqID != b.ReqID {
		t.Fatalf("header mismatch: %v/%d vs %v/%d", a.Type, a.ReqID, b.Type, b.ReqID)
	}
	switch a.Type {
	case TInsert:
		if a.Key != b.Key || a.Origin != b.Origin || !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("insert mismatch: %+v vs %+v", a, b)
		}
	case TLookup, TDelete:
		if a.Key != b.Key || a.Origin != b.Origin {
			t.Fatalf("keyed request mismatch: %+v vs %+v", a, b)
		}
	case TStats:
	case TInsertOK:
		if a.Insert != b.Insert {
			t.Fatalf("insert reply mismatch: %+v vs %+v", a.Insert, b.Insert)
		}
	case TLookupOK:
		if a.Lookup != b.Lookup {
			t.Fatalf("lookup reply mismatch: %+v vs %+v", a.Lookup, b.Lookup)
		}
	case TDeleteOK:
		if a.Deleted != b.Deleted {
			t.Fatalf("delete reply mismatch: %d vs %d", a.Deleted, b.Deleted)
		}
	case TStatsOK:
		if a.Stats.Shards != b.Stats.Shards || a.Stats.Inserts != b.Stats.Inserts ||
			a.Stats.Lookups != b.Stats.Lookups || a.Stats.Deletes != b.Stats.Deletes ||
			a.Stats.Found != b.Stats.Found ||
			!reflect.DeepEqual(a.Stats.ShardRequests, b.Stats.ShardRequests) {
			t.Fatalf("stats mismatch: %+v vs %+v", a.Stats, b.Stats)
		}
	case TMembers:
	case TMembersOK:
		if a.Cluster != b.Cluster || a.Replication != b.Replication || len(a.Members) != len(b.Members) {
			t.Fatalf("members mismatch: %+v vs %+v", a, b)
		}
		for i := range a.Members {
			if a.Members[i] != b.Members[i] {
				t.Fatalf("member %d mismatch: %q vs %q", i, a.Members[i], b.Members[i])
			}
		}
	case TWrongView:
		if a.Cluster != b.Cluster {
			t.Fatalf("wrong-view mismatch: %+v vs %+v", a, b)
		}
	case TPeerProbe:
		if a.Cluster != b.Cluster || a.Origin != b.Origin || !bytes.Equal(a.ClientAddr, b.ClientAddr) {
			t.Fatalf("probe mismatch: %+v vs %+v", a, b)
		}
	case TPeerProbeOK:
		if a.Cluster != b.Cluster || a.Origin != b.Origin || a.Held != b.Held || !bytes.Equal(a.ClientAddr, b.ClientAddr) {
			t.Fatalf("probe reply mismatch: %+v vs %+v", a, b)
		}
	case TRoute:
		if a.RouteKind != b.RouteKind || a.Cluster != b.Cluster || a.Key != b.Key || a.Origin != b.Origin {
			t.Fatalf("route mismatch: %+v vs %+v", a, b)
		}
		if a.Traced != b.Traced || a.Trace != b.Trace {
			t.Fatalf("route trace mismatch: %+v vs %+v", a, b)
		}
		if a.RouteKind == TInsert && !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("route value mismatch: %q vs %q", a.Value, b.Value)
		}
	case TRepair:
		if a.Cluster != b.Cluster || a.Region != b.Region || a.Cursor != b.Cursor ||
			a.Traced != b.Traced || a.Trace != b.Trace {
			t.Fatalf("repair mismatch: %+v vs %+v", a, b)
		}
	case TRepairOK:
		if a.Region != b.Region || a.More != b.More || a.Cursor != b.Cursor || !entriesEq(a.Entries, b.Entries) {
			t.Fatalf("repair reply mismatch: %+v vs %+v", a, b)
		}
	case TTransfer:
		if a.Cluster != b.Cluster || !entriesEq(a.Entries, b.Entries) ||
			a.Traced != b.Traced || a.Trace != b.Trace {
			t.Fatalf("transfer mismatch: %+v vs %+v", a, b)
		}
	case TTransferOK:
		if a.Accepted != b.Accepted {
			t.Fatalf("transfer reply mismatch: %d vs %d", a.Accepted, b.Accepted)
		}
	case TReplicate:
		if a.RouteKind != b.RouteKind || a.Cluster != b.Cluster || a.Key != b.Key || a.Origin != b.Origin {
			t.Fatalf("replicate mismatch: %+v vs %+v", a, b)
		}
		if a.Traced != b.Traced || a.Trace != b.Trace {
			t.Fatalf("replicate trace mismatch: %+v vs %+v", a, b)
		}
		if a.RouteKind == TInsert && !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("replicate value mismatch: %q vs %q", a.Value, b.Value)
		}
	case TReplicateOK:
	case TError:
		if !bytes.Equal(a.Value, b.Value) {
			t.Fatalf("error text mismatch: %q vs %q", a.Value, b.Value)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	var got Msg
	for _, m := range sampleMsgs() {
		frame, err := m.Append(nil)
		if err != nil {
			t.Fatalf("%v: encode: %v", m.Type, err)
		}
		if err := got.Decode(frame[lenWords:]); err != nil {
			t.Fatalf("%v: decode: %v", m.Type, err)
		}
		eq(t, &m, &got)
		// Re-encoding must reproduce the exact frame (canonical codec).
		again, err := got.Append(nil)
		if err != nil {
			t.Fatalf("%v: re-encode: %v", m.Type, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("%v: re-encode differs:\n %x\n %x", m.Type, frame, again)
		}
	}
}

func TestReadFrameStream(t *testing.T) {
	var stream []byte
	msgs := sampleMsgs()
	for _, m := range msgs {
		var err error
		stream, err = m.Append(stream)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	var scratch []byte
	var got Msg
	for _, want := range msgs {
		body, err := ReadFrame(r, &scratch)
		if err != nil {
			t.Fatalf("%v: read: %v", want.Type, err)
		}
		if err := got.Decode(body); err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		eq(t, &want, &got)
	}
	if _, err := ReadFrame(r, &scratch); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"header only lookup", append([]byte{byte(TLookup)}, make([]byte, 8)...), ErrShort},
		{"unknown type", append([]byte{0x7E}, make([]byte, 8)...), ErrType},
		{"stats with trailing", append([]byte{byte(TStats)}, make([]byte, 9)...), ErrTrailing},
		{"lookup trailing", append([]byte{byte(TLookup)}, make([]byte, 8+idspace.Bytes+5)...), ErrTrailing},
		{"deleteok short", append([]byte{byte(TDeleteOK)}, make([]byte, 8+2)...), ErrShort},
		{"bad bool", func() []byte {
			b := append([]byte{byte(TLookupOK)}, make([]byte, 8+25)...)
			b[9] = 2
			return b
		}(), ErrBool},
		{"stats shard mismatch", func() []byte {
			b := append([]byte{byte(TStatsOK)}, make([]byte, 8+36+8)...)
			b[9+3] = 7 // claims 7 shards, carries 1
			return b
		}(), ErrShards},
		{"route bad kind", func() []byte {
			b := append([]byte{byte(TRoute)}, make([]byte, 8+1+8+1+idspace.Bytes+4)...)
			b[9] = byte(TStats) // not a routable kind
			return b
		}(), ErrRoute},
		{"route lookup trailing", func() []byte {
			b := append([]byte{byte(TRoute)}, make([]byte, 8+1+8+1+idspace.Bytes+4+3)...)
			b[9] = byte(TLookup)
			return b
		}(), ErrTrailing},
		{"route bad trace flags", func() []byte {
			b := append([]byte{byte(TRoute)}, make([]byte, 8+1+8+1+idspace.Bytes+4)...)
			b[9] = byte(TLookup)
			b[9+1+8] = 0x80 // undefined trailer flag bit
			return b
		}(), ErrTrace},
		{"route traced id cut short", func() []byte {
			b := append([]byte{byte(TRoute)}, make([]byte, 8+1+8+1+4)...)
			b[9] = byte(TLookup)
			b[9+1+8] = 1 // sampled, but only 4 of the 8 ID bytes follow
			return b
		}(), ErrShort},
		{"route traced key cut short", func() []byte {
			b := append([]byte{byte(TRoute)}, make([]byte, 8+1+8+9+idspace.Bytes)...)
			b[9] = byte(TLookup)
			b[9+1+8] = 1 // full trailer, but origin is missing after the key
			return b
		}(), ErrShort},
		{"probe short", append([]byte{byte(TPeerProbe)}, make([]byte, 8+11)...), ErrShort},
		{"probe addr overruns body", func() []byte {
			b := append([]byte{byte(TPeerProbe)}, make([]byte, 8+14)...)
			b[9+13] = 5 // alen = 5, but the body ends here
			return b
		}(), ErrShort},
		{"probe addr trailing", append([]byte{byte(TPeerProbe)}, make([]byte, 8+14+3)...), ErrTrailing},
		{"probe-ok short", append([]byte{byte(TPeerProbeOK)}, make([]byte, 8+20)...), ErrShort},
		{"members with body", append([]byte{byte(TMembers)}, make([]byte, 8+1)...), ErrTrailing},
		{"members-ok short", append([]byte{byte(TMembersOK)}, make([]byte, 8+14)...), ErrShort},
		{"members-ok count overruns body", func() []byte {
			b := append([]byte{byte(TMembersOK)}, make([]byte, 8+16)...)
			b[9+15] = 9 // claims 9 members, carries none
			return b
		}(), ErrMembers},
		{"members-ok len overruns body", func() []byte {
			b := append([]byte{byte(TMembersOK)}, make([]byte, 8+16+2)...)
			b[9+15] = 1  // one member...
			b[9+17] = 40 // ...claiming 40 bytes the body lacks
			return b
		}(), ErrMembers},
		{"members-ok trailing", append([]byte{byte(TMembersOK)}, make([]byte, 8+16+1)...), ErrTrailing},
		{"wrong-view short", append([]byte{byte(TWrongView)}, make([]byte, 8+4)...), ErrShort},
		{"wrong-view trailing", append([]byte{byte(TWrongView)}, make([]byte, 8+9)...), ErrTrailing},
		{"repair short", append([]byte{byte(TRepair)}, make([]byte, 8+8+1+5)...), ErrShort},
		{"repair trailing", append([]byte{byte(TRepair)}, make([]byte, 8+8+1+4+24+2)...), ErrTrailing},
		// A 28-byte cursor (u32 shard | u32 node | key[20]) is the layout
		// from before entries lost their node: refused, never misparsed.
		{"repair with node-bearing cursor", append([]byte{byte(TRepair)}, make([]byte, 8+8+1+4+28)...), ErrTrailing},
		{"repair bad trace flags", func() []byte {
			b := append([]byte{byte(TRepair)}, make([]byte, 8+8+1+4+24)...)
			b[9+8] = 3 // trailer flags must be 0 or 1
			return b
		}(), ErrTrace},
		{"repair-ok bad more byte", func() []byte {
			b := append([]byte{byte(TRepairOK)}, make([]byte, 8+4+1+24+4)...)
			b[9+4] = 7 // more must be 0 or 1
			return b
		}(), ErrBool},
		{"repair-ok cursor without more", func() []byte {
			b := append([]byte{byte(TRepairOK)}, make([]byte, 8+4+1+24+4)...)
			b[9+4] = 0   // more = 0
			b[9+4+1] = 9 // ...but a nonzero cursor shard
			return b
		}(), ErrCursor},
		{"transfer count overruns body", func() []byte {
			b := append([]byte{byte(TTransfer)}, make([]byte, 8+8+1+4)...)
			b[9+8+1+3] = 9 // claims 9 entries, carries none
			return b
		}(), ErrEntries},
		{"transfer value overruns body", func() []byte {
			// One entry whose value length claims more bytes than remain.
			b := append([]byte{byte(TTransfer)}, make([]byte, 8+8+1+4+28)...)
			b[9+8+1+3] = 1      // one entry
			b[9+8+1+4+27] = 200 // vlen = 200, but the body ends here
			return b
		}(), ErrEntries},
		{"transfer trailing", func() []byte {
			b := append([]byte{byte(TTransfer)}, make([]byte, 8+8+1+4+28+2)...)
			b[9+8+1+3] = 1 // one entry with vlen 0, then 2 stray bytes
			return b
		}(), ErrTrailing},
		{"transfer bad trace flags", func() []byte {
			b := append([]byte{byte(TTransfer)}, make([]byte, 8+8+1+4)...)
			b[9+8] = 0xFF
			return b
		}(), ErrTrace},
		{"replicate bad kind", func() []byte {
			b := append([]byte{byte(TReplicate)}, make([]byte, 8+1+8+1+idspace.Bytes+4)...)
			b[9] = byte(TLookup) // lookups fail over, they are never replicated
			return b
		}(), ErrRepl},
		{"replicate delete trailing", func() []byte {
			b := append([]byte{byte(TReplicate)}, make([]byte, 8+1+8+1+idspace.Bytes+4+3)...)
			b[9] = byte(TDelete)
			return b
		}(), ErrTrailing},
		{"replicate bad trace flags", func() []byte {
			b := append([]byte{byte(TReplicate)}, make([]byte, 8+1+8+1+idspace.Bytes+4)...)
			b[9] = byte(TInsert)
			b[9+1+8] = 0x80 // undefined trailer flag bit
			return b
		}(), ErrTrace},
		{"replicate key cut short", func() []byte {
			b := append([]byte{byte(TReplicate)}, make([]byte, 8+1+8+1+4)...)
			b[9] = byte(TDelete)
			return b
		}(), ErrShort},
		{"replicate-ok with body", append([]byte{byte(TReplicateOK)}, make([]byte, 8+1)...), ErrTrailing},
	}
	var m Msg
	for _, tc := range cases {
		if err := m.Decode(tc.body); err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadFrameRejectsOversizeBeforeAllocating(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF} // 4 GiB claim
	var scratch []byte
	if _, err := ReadFrame(bytes.NewReader(hdr), &scratch); err != ErrOversize {
		t.Fatalf("got %v, want ErrOversize", err)
	}
	if cap(scratch) > 1024 {
		t.Fatalf("oversize frame grew scratch to %d bytes", cap(scratch))
	}
}

func TestReadFrameTruncated(t *testing.T) {
	m := Msg{Type: TLookup, ReqID: 1, Key: idspace.FromString("k"), Origin: 3}
	frame, err := m.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-3]), &scratch); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestAppendOversizeValue(t *testing.T) {
	m := Msg{Type: TInsert, ReqID: 1, Value: make([]byte, MaxFrame)}
	if _, err := m.Append(nil); err != ErrOversize {
		t.Fatalf("got %v, want ErrOversize", err)
	}
}

func TestEncodeZeroAlloc(t *testing.T) {
	m := Msg{Type: TInsert, ReqID: 1, Key: idspace.FromString("k"), Origin: 3, Value: []byte("payload")}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if _, err = m.Append(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode allocates %.1f times per op", allocs)
	}
}

func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	src := Msg{Type: TInsert, ReqID: 1, Key: idspace.FromString("k"), Origin: 3, Value: []byte("payload")}
	frame, err := src.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	var m Msg
	if err := m.Decode(frame[lenWords:]); err != nil { // warm Value capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Decode(frame[lenWords:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f times per op", allocs)
	}
}

func BenchmarkEncodeInsert(b *testing.B) {
	m := Msg{Type: TInsert, ReqID: 1, Key: idspace.FromString("k"), Origin: 3, Value: []byte("tcp://node42:7700/object")}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = m.Append(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInsert(b *testing.B) {
	src := Msg{Type: TInsert, ReqID: 1, Key: idspace.FromString("k"), Origin: 3, Value: []byte("tcp://node42:7700/object")}
	frame, err := src.Append(nil)
	if err != nil {
		b.Fatal(err)
	}
	var m Msg
	if err := m.Decode(frame[lenWords:]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Decode(frame[lenWords:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeLookupReply(b *testing.B) {
	src := Msg{Type: TLookupOK, ReqID: 3, Lookup: LookupReply{Found: true, FirstReplyHops: 4, Replies: 3, Messages: 17, Flows: 8}}
	frame, err := src.Append(nil)
	if err != nil {
		b.Fatal(err)
	}
	var m Msg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Decode(frame[lenWords:]); err != nil {
			b.Fatal(err)
		}
	}
}
