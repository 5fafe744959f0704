// Package wire is discoverynode's binary wire protocol: a compact
// length-prefixed framing with fixed-layout bodies for the four request
// kinds (insert, lookup, delete, stats) and their responses.
//
// The codec follows the repository's zero-allocation buffer discipline:
// encoding appends to a caller-owned byte slice, decoding fills a reusable
// Msg whose variable-length fields recycle their backing arrays, and frame
// reading grows a caller-owned scratch buffer once and then reuses it.
// There is no reflection and no JSON on the hot path.
//
// # Framing
//
// Every message on the wire is one frame:
//
//	| u32 length | u8 type | u64 reqID | body |
//
// where length covers everything after the length word itself, all
// integers are big-endian, and length is at most MaxFrame. ReqID is an
// opaque request correlator chosen by the client; the server echoes it in
// the response, which is what makes request pipelining (and out-of-order
// completion across shards) possible over a single connection.
//
// # Bodies
//
//	TInsert:   key[20] | u32 origin | value...         (value = rest of frame)
//	TLookup:   key[20] | u32 origin
//	TDelete:   key[20] | u32 origin
//	TStats:    (empty)
//	TMembers:  (empty)
//	TInsertOK: u32 replicas | u32 messages | u32 duplicates | u32 flows | u32 dropped
//	TLookupOK: u8 found | u32 firstReplyHops (two's complement) | u32 replies |
//	           u32 messages | u32 duplicates | u32 flows | u32 dropped
//	TDeleteOK: u32 removed
//	TStatsOK:  u32 shards | u64 inserts | u64 lookups | u64 deletes |
//	           u64 found | shards x u64 perShardRequests
//	TMembersOK: u64 clusterHash | u32 replication | u32 count | count x (u16 len | addr)
//	TError:    text...                                 (UTF-8, rest of frame)
//
// TMembers/TMembersOK let a cluster-aware client learn the member list
// and its fingerprint from any node: the reply's addresses are the
// cluster's client-serving endpoints in region order (an empty address
// means that member's endpoint is not yet known), the hash is the
// membership fingerprint every routed request must echo, and
// replication is how many consecutive regions replicate each key
// (discovery.ReplicasOf) so clients can fail reads over to a co-replica.
//
// # Peer bodies
//
// Node-to-node traffic (internal/p2p) reuses the same framing and reqID
// correlation with its own type range. TRoute wraps one client request
// for the key's owning node; its response reuses the matching client
// response type (TInsertOK, TLookupOK, TDeleteOK, or TError), so a routed
// reply can be relayed to the originating client byte-for-byte.
//
// Every peer REQUEST carries the sender's cluster-membership hash:
// nodes configured with different member lists disagree about key
// ownership, so a receiver refuses mismatched requests outright instead
// of executing them under a conflicting view.
//
//	TPeerProbe:   u64 clusterHash | u32 sender | u16 len | clientAddr
//	TRoute:       u8 kind (TInsert|TLookup|TDelete) | u64 clusterHash | trace |
//	              key[20] | u32 origin | value...    (value only for insert kind)
//	TRepair:      u64 clusterHash | trace | u32 region | cursor
//	TReplicate:   u8 kind (TInsert|TDelete) | u64 clusterHash | trace |
//	              key[20] | u32 origin | value...    (value only for insert kind)
//	TPeerProbeOK: u64 clusterHash | u32 responder | u64 heldReplicas |
//	              u16 len | clientAddr
//	TRepairOK:    u32 region | u8 more | cursor | u32 count | count x entry
//	TReplicateOK: (empty)
//	TWrongView:   u64 clusterHash                    (the receiver's hash)
//
// TReplicate is the quorum-write fan-out: the coordinator of a mutation
// executes it locally and sends the same mutation to the key's other
// replicas, acking the client only once a quorum of them (itself
// included) has committed. Its body is TRoute-shaped — same hash, trace
// trailer, key, origin and value — but its kind is restricted to the
// mutations (lookups fail over instead of fanning out) and the receiver
// applies it locally without re-forwarding or re-replicating.
// TReplicateOK's empty body is the commit acknowledgement; a failure is
// a TError or TWrongView like any other peer request.
//
// Probes piggyback the sender's (and responder's) client-serving address
// so every node learns where its peers accept client connections without
// a separate exchange; TMembersOK republishes that table to clients. An
// empty address means "not advertised". TWrongView is the refusal a node
// sends a client whose TRoute carried a stale membership hash — it
// announces the receiver's own hash so the client knows a refresh is
// worthwhile, and it is deliberately distinct from TError so clients can
// tell "re-learn the cluster and retry" from a terminal failure.
//
// where trace = u8 tflags | [u64 traceID] is the optional trace-context
// trailer every peer REQUEST that executes work carries right after its
// cluster hash: tflags 0x00 means untraced (no ID follows), 0x01 means
// the request is sampled and the u64 trace ID follows, and any other
// flags value is rejected with ErrTrace (strict, canonical — there is
// exactly one encoding of "untraced"). The ID joins the spans a request
// leaves on every node it touches (internal/trace); responses carry no
// trailer because the reqID already correlates them to the request.
//
// where entry = u32 origin | key[20] | u32 valueLen | value, and
// cursor = u32 shard | key[20] — a resume position in the store's stable
// (shard, key) order. A TRepair's cursor is where the
// responder should start (zero = the beginning); a TRepairOK whose reply
// hit its byte budget sets more=1 and returns the cursor of the first
// entry it withheld, which the puller sends back verbatim to stream the
// next page. When more is 0 the cursor must be zero (strict, canonical).
//
// Decoding is strict: bodies must have exactly the advertised layout, and
// decoding arbitrary bytes never panics (fuzzed by FuzzDecode).
//
// The tables above are the protocol reference. Append and Decode code
// each layout in one arm, in table order; messages that share a layout
// share the arm. testdata/frames.hex pins the encoded bytes of every
// type, so a format change shows as the frames it changes.
package wire

import (
	"encoding/binary"
	"errors"
	"io"

	"discovery/internal/idspace"
	"discovery/internal/mpil"
)

// MaxFrame is the largest legal frame body (everything after the length
// word). It bounds both value payloads and the allocation a malicious
// length prefix can force on a reader.
const MaxFrame = 1 << 20

// MaxValue is the largest insert payload the serving layer accepts. It
// is derived from the most overhead-heavy frame a value must ever fit
// in, so that an insert accepted anywhere is forwardable (TRoute),
// replicable (TReplicate) and repairable (a single-entry TRepairOK page)
// through every other cluster node — a limit derived from the bare
// TInsert frame would let boundary-size inserts succeed on the owner and
// then be unroutable or silently unrepairable. The worst wrapper is the
// single-entry TRepairOK page:
//
//	header 9 + region 4 + more 1 + cursor 24 + count 4 + entry 28 = 70
//
// (a traced TRoute or TReplicate needs 51.)
const MaxValue = MaxFrame - maxValueOverhead

// maxValueOverhead is the single-entry TRepairOK wrapper cost derived
// above, re-stated from the codec's own constants.
const maxValueOverhead = headerLen + 4 + 1 + cursorLen + 4 + EntryOverhead

// cursorLen is the encoded size of a RepairCursor.
const cursorLen = 4 + idspace.Bytes

// lenWords is the size of the frame length prefix.
const lenWords = 4

// headerLen is type byte + reqID, the fixed prefix of every frame body.
const headerLen = 1 + 8

// Type identifies a message kind. Requests have the high bit clear,
// responses have it set.
type Type uint8

// Message types.
const (
	TInsert  Type = 0x01
	TLookup  Type = 0x02
	TDelete  Type = 0x03
	TStats   Type = 0x04
	TMembers Type = 0x05

	TInsertOK  Type = 0x81
	TLookupOK  Type = 0x82
	TDeleteOK  Type = 0x83
	TStatsOK   Type = 0x84
	TMembersOK Type = 0x85
	TError     Type = 0xFF
)

// Peer (node-to-node) message types. 0x91 is deliberately unassigned:
// TRoute responses reuse the client response types so relays are
// byte-identical. 0x13 and 0x93 are unassigned too (they carried a
// push-style replica transfer) and decode as ErrType.
const (
	TPeerProbe Type = 0x10
	TRoute     Type = 0x11
	TRepair    Type = 0x12
	TReplicate Type = 0x14

	TPeerProbeOK Type = 0x90
	TRepairOK    Type = 0x92
	TReplicateOK Type = 0x94
	TWrongView   Type = 0x95
)

// typeNames names every assigned message type; an empty entry is an
// unassigned type byte.
var typeNames = [256]string{
	TInsert:      "insert",
	TLookup:      "lookup",
	TDelete:      "delete",
	TStats:       "stats",
	TMembers:     "members",
	TInsertOK:    "insert-ok",
	TLookupOK:    "lookup-ok",
	TDeleteOK:    "delete-ok",
	TStatsOK:     "stats-ok",
	TMembersOK:   "members-ok",
	TError:       "error",
	TPeerProbe:   "peer-probe",
	TRoute:       "route",
	TRepair:      "repair",
	TReplicate:   "replicate",
	TPeerProbeOK: "peer-probe-ok",
	TRepairOK:    "repair-ok",
	TReplicateOK: "replicate-ok",
	TWrongView:   "wrong-view",
}

// String implements fmt.Stringer for log lines.
func (t Type) String() string {
	if name := typeNames[t]; name != "" {
		return name
	}
	return "unknown"
}

// OriginAuto is the origin sentinel meaning "server picks the entry node"
// (derived deterministically from the key by discovery's
// Pool.ResolveOrigin).
const OriginAuto = ^uint32(0)

// Decode errors. These are predeclared so the steady-state decode path
// allocates nothing even when rejecting garbage.
var (
	ErrShort    = errors.New("wire: frame body too short")
	ErrTrailing = errors.New("wire: trailing bytes after body")
	ErrOversize = errors.New("wire: frame exceeds MaxFrame")
	ErrType     = errors.New("wire: unknown message type")
	ErrBool     = errors.New("wire: boolean byte not 0 or 1")
	ErrShards   = errors.New("wire: stats shard count out of range")
	ErrRoute    = errors.New("wire: route kind must be insert, lookup or delete")
	ErrRepl     = errors.New("wire: replicate kind must be insert or delete")
	ErrEntries  = errors.New("wire: entry count disagrees with body")
	ErrCursor   = errors.New("wire: repair cursor present without more flag")
	ErrMembers  = errors.New("wire: member list disagrees with body")
	ErrAddr     = errors.New("wire: address exceeds 65535 bytes")
	ErrTrace    = errors.New("wire: invalid trace trailer flags")
)

// InsertReply carries the insertion statistics of one request.
type InsertReply struct {
	Replicas   uint32
	Messages   uint32
	Duplicates uint32
	Flows      uint32
	Dropped    uint32
}

// LookupReply carries the lookup outcome of one request.
type LookupReply struct {
	Found          bool
	FirstReplyHops int32 // -1 when not found
	Replies        uint32
	Messages       uint32
	Duplicates     uint32
	Flows          uint32
	Dropped        uint32
}

// InsertReplyFrom converts a pool's insertion statistics to the
// wire reply. Shared by the client-serving path (internal/server) and
// the peer-routing path (internal/p2p) so the field mapping cannot
// drift between them.
func InsertReplyFrom(r mpil.InsertStats) InsertReply {
	return InsertReply{
		Replicas:   uint32(r.Replicas),
		Messages:   uint32(r.Messages),
		Duplicates: uint32(r.Duplicates),
		Flows:      uint32(r.Flows),
		Dropped:    uint32(r.Dropped),
	}
}

// LookupReplyFrom converts a pool's lookup statistics to the wire
// reply; see InsertReplyFrom.
func LookupReplyFrom(r mpil.LookupStats) LookupReply {
	return LookupReply{
		Found:          r.Found,
		FirstReplyHops: int32(r.FirstReplyHops),
		Replies:        uint32(r.Replies),
		Messages:       uint32(r.Messages),
		Duplicates:     uint32(r.Duplicates),
		Flows:          uint32(r.Flows),
		Dropped:        uint32(r.Dropped),
	}
}

// StatsReply is the daemon-wide counter snapshot.
type StatsReply struct {
	Shards  uint32
	Inserts uint64
	Lookups uint64
	Deletes uint64
	// Found counts lookups that located at least one replica.
	Found uint64
	// ShardRequests has one entry per shard: total requests executed
	// there. Reused across decodes; len == Shards after a successful
	// decode.
	ShardRequests []uint64
}

// Entry is one stored entry carried by a TRepairOK body: key, value and
// inserting origin, which the receiver stores as they are. Decode
// allocates a fresh Value per entry — entries may be retained by the
// receiver's store.
type Entry struct {
	Origin uint32
	Key    idspace.ID
	Value  []byte
}

// EntryOverhead is an entry's fixed wire cost — origin, key, and the
// value length word — exported so senders can budget entry batches
// against MaxFrame with the codec's own arithmetic.
const EntryOverhead = 4 + idspace.Bytes + 4

// RepairCursor is a resume position in a store's stable iteration order
// (shard, then key, both ascending — discovery.ReplicaCursor's wire
// twin). The zero cursor means the start
// of the store. A TRepair carries where the responder should resume; a
// budget-limited TRepairOK carries where the next page begins.
type RepairCursor struct {
	Shard uint32
	Key   idspace.ID
}

// IsZero reports whether c is the start-of-store cursor.
func (c RepairCursor) IsZero() bool { return c == RepairCursor{} }

// Msg is one decoded message of any type. A single Msg is meant to be
// reused across a connection's lifetime: Decode refills it in place and
// Value/Stats.ShardRequests recycle their capacity.
type Msg struct {
	Type   Type
	ReqID  uint64
	Key    idspace.ID
	Origin uint32 // requests only; OriginAuto delegates the choice
	// Value is the insert payload (TInsert, TRoute) or error text
	// (TError).
	Value  []byte
	Insert InsertReply
	Lookup LookupReply
	// Deleted is the removed-replica count of a TDeleteOK.
	Deleted uint32
	Stats   StatsReply

	// Peer-message fields.

	// RouteKind is the wrapped request type of a TRoute (TInsert,
	// TLookup or TDelete) or a TReplicate (TInsert or TDelete).
	RouteKind Type
	// Cluster is the membership hash carried by probes, letting peers
	// refuse to serve a node configured with a different member list.
	// Origin doubles as the sender (TPeerProbe) / responder
	// (TPeerProbeOK) cluster index.
	Cluster uint64
	// Held is the responder's stored replica count (TPeerProbeOK).
	Held uint64
	// Region is the keyspace region a TRepair asks for, echoed by
	// TRepairOK.
	Region uint32
	// Cursor is the repair resume position: where a TRepair asks the
	// responder to start, and — when More is set on a TRepairOK — where
	// the next page begins. Must be zero on a TRepairOK without More.
	Cursor RepairCursor
	// More reports that a TRepairOK was cut by its byte budget and
	// Cursor resumes the remainder.
	More bool
	// Entries carries stored entries (TRepairOK).
	Entries []Entry
	// ClientAddr is the sender's (TPeerProbe) or responder's
	// (TPeerProbeOK) client-serving address; empty means not advertised.
	// Reused across decodes like Value.
	ClientAddr []byte
	// Members is the cluster's client-serving address list in region
	// order (TMembersOK). Cluster carries the matching fingerprint.
	// Decoding allocates fresh strings — member lists are small and rare.
	Members []string
	// Replication is how many consecutive regions replicate each key
	// (TMembersOK); 1 means unreplicated.
	Replication uint32
	// Trace is the propagated trace ID of a sampled peer request
	// (TRoute, TRepair, TReplicate); meaningful only when Traced is set.
	Trace uint64
	// Traced reports that the peer request carries a trace ID, i.e. some
	// node sampled it and every hop should record spans under Trace.
	Traced bool
}

// ErrorText returns the error message of a TError response.
func (m *Msg) ErrorText() string { return string(m.Value) }

// Append encodes the message as one complete frame (length prefix
// included) appended to dst, returning the extended slice. With
// sufficient capacity in dst it performs no allocation. It refuses a
// message it cannot encode canonically (ErrType, ErrShards, ErrRoute,
// ErrRepl, ErrCursor, ErrAddr) and one whose body would exceed MaxFrame
// (ErrOversize); on error it returns dst as it was passed in.
func (m *Msg) Append(dst []byte) ([]byte, error) {
	// The body is written first and its length patched in after, so it is
	// walked once instead of sized and then written.
	out := append(binary.BigEndian.AppendUint32(dst, 0), byte(m.Type))
	out = binary.BigEndian.AppendUint64(out, m.ReqID)
	switch m.Type {
	case TInsert, TLookup, TDelete:
		out = append(out, m.Key[:]...)
		out = binary.BigEndian.AppendUint32(out, m.Origin)
		if m.Type == TInsert {
			out = append(out, m.Value...)
		}
	case TStats, TMembers, TReplicateOK:
	case TInsertOK:
		r := &m.Insert
		out = binary.BigEndian.AppendUint32(out, r.Replicas)
		out = binary.BigEndian.AppendUint32(out, r.Messages)
		out = binary.BigEndian.AppendUint32(out, r.Duplicates)
		out = binary.BigEndian.AppendUint32(out, r.Flows)
		out = binary.BigEndian.AppendUint32(out, r.Dropped)
	case TLookupOK:
		r := &m.Lookup
		out = appendBool(out, r.Found)
		out = binary.BigEndian.AppendUint32(out, uint32(r.FirstReplyHops))
		out = binary.BigEndian.AppendUint32(out, r.Replies)
		out = binary.BigEndian.AppendUint32(out, r.Messages)
		out = binary.BigEndian.AppendUint32(out, r.Duplicates)
		out = binary.BigEndian.AppendUint32(out, r.Flows)
		out = binary.BigEndian.AppendUint32(out, r.Dropped)
	case TDeleteOK:
		out = binary.BigEndian.AppendUint32(out, m.Deleted)
	case TStatsOK:
		s := &m.Stats
		if int(s.Shards) != len(s.ShardRequests) {
			return dst, ErrShards
		}
		out = binary.BigEndian.AppendUint32(out, s.Shards)
		out = binary.BigEndian.AppendUint64(out, s.Inserts)
		out = binary.BigEndian.AppendUint64(out, s.Lookups)
		out = binary.BigEndian.AppendUint64(out, s.Deletes)
		out = binary.BigEndian.AppendUint64(out, s.Found)
		for _, v := range s.ShardRequests {
			out = binary.BigEndian.AppendUint64(out, v)
		}
	case TMembersOK:
		out = binary.BigEndian.AppendUint64(out, m.Cluster)
		out = binary.BigEndian.AppendUint32(out, m.Replication)
		out = binary.BigEndian.AppendUint32(out, uint32(len(m.Members)))
		for _, a := range m.Members {
			if len(a) > 0xFFFF {
				return dst, ErrAddr
			}
			out = binary.BigEndian.AppendUint16(out, uint16(len(a)))
			out = append(out, a...)
		}
	case TError:
		out = append(out, m.Value...)
	case TPeerProbe, TPeerProbeOK:
		if len(m.ClientAddr) > 0xFFFF {
			return dst, ErrAddr
		}
		out = binary.BigEndian.AppendUint64(out, m.Cluster)
		out = binary.BigEndian.AppendUint32(out, m.Origin)
		if m.Type == TPeerProbeOK {
			out = binary.BigEndian.AppendUint64(out, m.Held)
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(m.ClientAddr)))
		out = append(out, m.ClientAddr...)
	case TRoute, TReplicate:
		if err := kindErr(m.Type, m.RouteKind); err != nil {
			return dst, err
		}
		out = append(out, byte(m.RouteKind))
		out = binary.BigEndian.AppendUint64(out, m.Cluster)
		out = m.appendTrace(out)
		out = append(out, m.Key[:]...)
		out = binary.BigEndian.AppendUint32(out, m.Origin)
		if m.RouteKind == TInsert {
			out = append(out, m.Value...)
		}
	case TRepair:
		out = binary.BigEndian.AppendUint64(out, m.Cluster)
		out = m.appendTrace(out)
		out = binary.BigEndian.AppendUint32(out, m.Region)
		out = appendCursor(out, m.Cursor)
	case TRepairOK:
		if !m.More && !m.Cursor.IsZero() {
			return dst, ErrCursor
		}
		out = binary.BigEndian.AppendUint32(out, m.Region)
		out = appendBool(out, m.More)
		out = appendCursor(out, m.Cursor)
		out = appendEntries(out, m.Entries)
	case TWrongView:
		out = binary.BigEndian.AppendUint64(out, m.Cluster)
	default:
		return dst, ErrType
	}
	body := len(out) - len(dst) - lenWords
	if body > MaxFrame {
		return dst, ErrOversize
	}
	binary.BigEndian.PutUint32(out[len(dst):], uint32(body))
	return out, nil
}

// kindErr is the error for a TRoute or TReplicate (t) wrapping request
// kind k, or nil when t may wrap k. Lookups are routed but never
// replicated: a replica fails a read over instead.
func kindErr(t, k Type) error {
	switch {
	case k == TInsert || k == TDelete || k == TLookup && t == TRoute:
		return nil
	case t == TRoute:
		return ErrRoute
	default:
		return ErrRepl
	}
}

// appendBool encodes a strict 0/1 boolean byte.
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendTrace encodes the trace trailer onto dst: a lone 0x00 flags byte
// when untraced, 0x01 followed by the trace ID when traced.
func (m *Msg) appendTrace(dst []byte) []byte {
	if !m.Traced {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.BigEndian.AppendUint64(dst, m.Trace)
}

// decodeTrace parses the trace trailer from the front of b, filling
// m.Traced/m.Trace, and returns what follows it. Flags other than 0x00
// and 0x01 are rejected so future trailer extensions cannot be silently
// misread.
func (m *Msg) decodeTrace(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, ErrShort
	}
	switch b[0] {
	case 0:
		m.Traced = false
		m.Trace = 0
		return b[1:], nil
	case 1:
		if len(b) < 1+8 {
			return nil, ErrShort
		}
		m.Traced = true
		m.Trace = binary.BigEndian.Uint64(b[1:])
		return b[9:], nil
	default:
		return nil, ErrTrace
	}
}

// appendCursor encodes a repair cursor onto dst.
func appendCursor(dst []byte, c RepairCursor) []byte {
	dst = binary.BigEndian.AppendUint32(dst, c.Shard)
	return append(dst, c.Key[:]...)
}

// decodeCursor parses a repair cursor from the front of b.
func decodeCursor(b []byte) RepairCursor {
	var c RepairCursor
	c.Shard = binary.BigEndian.Uint32(b[0:])
	copy(c.Key[:], b[4:])
	return c
}

// appendEntries encodes a count-prefixed entry list onto dst.
func appendEntries(dst []byte, entries []Entry) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = binary.BigEndian.AppendUint32(dst, e.Origin)
		dst = append(dst, e.Key[:]...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Value)))
		dst = append(dst, e.Value...)
	}
	return dst
}

// Decode parses one frame body (everything after the length word) into m,
// reusing m's variable-length buffers. It is strict — every body must
// have exactly its advertised layout — and never panics on arbitrary
// input.
func (m *Msg) Decode(body []byte) error {
	// Zero the header first so a frame too short to carry one cannot
	// leave a previous decode's reqID behind (error replies would then
	// mis-correlate under pipelining).
	m.Type = 0
	m.ReqID = 0
	if len(body) > MaxFrame {
		return ErrOversize
	}
	if len(body) < headerLen {
		return ErrShort
	}
	m.Type = Type(body[0])
	m.ReqID = binary.BigEndian.Uint64(body[1:9])
	b := body[headerLen:]
	switch m.Type {
	case TInsert, TLookup, TDelete:
		if len(b) < idspace.Bytes+4 {
			return ErrShort
		}
		copy(m.Key[:], b)
		m.Origin = binary.BigEndian.Uint32(b[idspace.Bytes:])
		rest := b[idspace.Bytes+4:]
		if m.Type == TInsert {
			m.Value = append(m.Value[:0], rest...)
		} else if len(rest) != 0 {
			return ErrTrailing
		}
	case TStats, TMembers, TReplicateOK:
		if len(b) != 0 {
			return ErrTrailing
		}
	case TInsertOK:
		if len(b) != 5*4 {
			return sizeErr(len(b), 5*4)
		}
		r := &m.Insert
		r.Replicas = binary.BigEndian.Uint32(b[0:])
		r.Messages = binary.BigEndian.Uint32(b[4:])
		r.Duplicates = binary.BigEndian.Uint32(b[8:])
		r.Flows = binary.BigEndian.Uint32(b[12:])
		r.Dropped = binary.BigEndian.Uint32(b[16:])
	case TLookupOK:
		if len(b) != 1+6*4 {
			return sizeErr(len(b), 1+6*4)
		}
		r := &m.Lookup
		if b[0] > 1 {
			return ErrBool
		}
		r.Found = b[0] == 1
		r.FirstReplyHops = int32(binary.BigEndian.Uint32(b[1:]))
		r.Replies = binary.BigEndian.Uint32(b[5:])
		r.Messages = binary.BigEndian.Uint32(b[9:])
		r.Duplicates = binary.BigEndian.Uint32(b[13:])
		r.Flows = binary.BigEndian.Uint32(b[17:])
		r.Dropped = binary.BigEndian.Uint32(b[21:])
	case TDeleteOK:
		if len(b) != 4 {
			return sizeErr(len(b), 4)
		}
		m.Deleted = binary.BigEndian.Uint32(b)
	case TStatsOK:
		if len(b) < 4+4*8 {
			return ErrShort
		}
		s := &m.Stats
		s.Shards = binary.BigEndian.Uint32(b[0:])
		s.Inserts = binary.BigEndian.Uint64(b[4:])
		s.Lookups = binary.BigEndian.Uint64(b[12:])
		s.Deletes = binary.BigEndian.Uint64(b[20:])
		s.Found = binary.BigEndian.Uint64(b[28:])
		rest := b[36:]
		if uint64(len(rest)) != 8*uint64(s.Shards) {
			return ErrShards
		}
		s.ShardRequests = s.ShardRequests[:0]
		for len(rest) > 0 {
			s.ShardRequests = append(s.ShardRequests, binary.BigEndian.Uint64(rest))
			rest = rest[8:]
		}
	case TMembersOK:
		if len(b) < 8+4+4 {
			return ErrShort
		}
		m.Cluster = binary.BigEndian.Uint64(b[0:])
		m.Replication = binary.BigEndian.Uint32(b[8:])
		count := binary.BigEndian.Uint32(b[12:])
		rest := b[16:]
		// Each member costs at least its length word; the early check
		// keeps an adversarial count from forcing allocation.
		if uint64(count)*2 > uint64(len(rest)) {
			return ErrMembers
		}
		m.Members = m.Members[:0]
		for i := uint32(0); i < count; i++ {
			if len(rest) < 2 {
				return ErrMembers
			}
			alen := int(binary.BigEndian.Uint16(rest))
			rest = rest[2:]
			if alen > len(rest) {
				return ErrMembers
			}
			m.Members = append(m.Members, string(rest[:alen]))
			rest = rest[alen:]
		}
		if len(rest) != 0 {
			return ErrTrailing
		}
	case TError:
		m.Value = append(m.Value[:0], b...)
	case TPeerProbe, TPeerProbeOK:
		fixed := 8 + 4 // cluster, sender or responder
		if m.Type == TPeerProbeOK {
			fixed += 8 // held
		}
		if len(b) < fixed+2 {
			return ErrShort
		}
		m.Cluster = binary.BigEndian.Uint64(b[0:])
		m.Origin = binary.BigEndian.Uint32(b[8:])
		if m.Type == TPeerProbeOK {
			m.Held = binary.BigEndian.Uint64(b[12:])
		}
		alen := int(binary.BigEndian.Uint16(b[fixed:]))
		if len(b) != fixed+2+alen {
			return sizeErr(len(b), fixed+2+alen)
		}
		m.ClientAddr = append(m.ClientAddr[:0], b[fixed+2:]...)
	case TRoute, TReplicate:
		if len(b) < 1+8 {
			return ErrShort
		}
		m.RouteKind = Type(b[0])
		m.Cluster = binary.BigEndian.Uint64(b[1:])
		rest, err := m.decodeTrace(b[9:])
		if err != nil {
			return err
		}
		if len(rest) < idspace.Bytes+4 {
			return ErrShort
		}
		copy(m.Key[:], rest)
		m.Origin = binary.BigEndian.Uint32(rest[idspace.Bytes:])
		rest = rest[idspace.Bytes+4:]
		if err := kindErr(m.Type, m.RouteKind); err != nil {
			return err
		}
		if m.RouteKind == TInsert {
			m.Value = append(m.Value[:0], rest...)
		} else if len(rest) != 0 {
			return ErrTrailing
		}
	case TRepair:
		if len(b) < 8 {
			return ErrShort
		}
		m.Cluster = binary.BigEndian.Uint64(b[0:])
		rest, err := m.decodeTrace(b[8:])
		if err != nil {
			return err
		}
		if len(rest) != 4+cursorLen {
			return sizeErr(len(rest), 4+cursorLen)
		}
		m.Region = binary.BigEndian.Uint32(rest[0:])
		m.Cursor = decodeCursor(rest[4:])
	case TRepairOK:
		if len(b) < 4+1+cursorLen {
			return ErrShort
		}
		m.Region = binary.BigEndian.Uint32(b)
		if b[4] > 1 {
			return ErrBool
		}
		m.More = b[4] == 1
		m.Cursor = decodeCursor(b[5:])
		if !m.More && !m.Cursor.IsZero() {
			return ErrCursor
		}
		if err := m.decodeEntries(b[5+cursorLen:]); err != nil {
			return err
		}
	case TWrongView:
		if len(b) != 8 {
			return sizeErr(len(b), 8)
		}
		m.Cluster = binary.BigEndian.Uint64(b)
	default:
		return ErrType
	}
	return nil
}

// decodeEntries parses a count-prefixed entry list into m.Entries. It
// is strict — the count must match the body exactly — and the early
// count-vs-size check keeps an adversarial count from forcing any
// allocation beyond the frame itself.
func (m *Msg) decodeEntries(b []byte) error {
	if len(b) < 4 {
		return ErrShort
	}
	count := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(count)*EntryOverhead > uint64(len(b)) {
		return ErrEntries
	}
	m.Entries = m.Entries[:0]
	for i := uint32(0); i < count; i++ {
		if len(b) < EntryOverhead {
			return ErrEntries
		}
		var e Entry
		e.Origin = binary.BigEndian.Uint32(b[0:])
		copy(e.Key[:], b[4:])
		vlen := binary.BigEndian.Uint32(b[4+idspace.Bytes:])
		b = b[EntryOverhead:]
		if uint64(vlen) > uint64(len(b)) {
			return ErrEntries
		}
		if vlen > 0 {
			e.Value = append([]byte(nil), b[:vlen]...)
		}
		b = b[vlen:]
		m.Entries = append(m.Entries, e)
	}
	if len(b) != 0 {
		return ErrTrailing
	}
	return nil
}

// sizeErr maps a wrong fixed-size body to the matching sentinel without
// allocating.
func sizeErr(got, want int) error {
	if got < want {
		return ErrShort
	}
	return ErrTrailing
}

// ReadFrame reads one complete frame body from r, growing and reusing
// *scratch as its buffer. The returned slice aliases *scratch and is only
// valid until the next call. A length prefix above MaxFrame is rejected
// before any payload allocation.
func ReadFrame(r io.Reader, scratch *[]byte) ([]byte, error) {
	buf := *scratch
	if cap(buf) < lenWords {
		buf = make([]byte, lenWords, 512)
		*scratch = buf
	}
	buf = buf[:cap(buf)]
	if _, err := io.ReadFull(r, buf[:lenWords]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:lenWords])
	if n > MaxFrame {
		return nil, ErrOversize
	}
	if int(n) > len(buf) {
		buf = make([]byte, n)
		*scratch = buf
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}
