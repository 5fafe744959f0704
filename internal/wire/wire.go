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
// decoding arbitrary bytes never panics (fuzzed by FuzzDecode and
// FuzzPeerDecode).
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

// String implements fmt.Stringer for log lines.
func (t Type) String() string {
	switch t {
	case TInsert:
		return "insert"
	case TLookup:
		return "lookup"
	case TDelete:
		return "delete"
	case TStats:
		return "stats"
	case TMembers:
		return "members"
	case TInsertOK:
		return "insert-ok"
	case TLookupOK:
		return "lookup-ok"
	case TDeleteOK:
		return "delete-ok"
	case TStatsOK:
		return "stats-ok"
	case TMembersOK:
		return "members-ok"
	case TPeerProbe:
		return "peer-probe"
	case TRoute:
		return "route"
	case TRepair:
		return "repair"
	case TReplicate:
		return "replicate"
	case TPeerProbeOK:
		return "peer-probe-ok"
	case TRepairOK:
		return "repair-ok"
	case TReplicateOK:
		return "replicate-ok"
	case TWrongView:
		return "wrong-view"
	case TError:
		return "error"
	default:
		return "unknown"
	}
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

// bodyLen returns the body size of the message, excluding the frame
// length word but including the type/reqID header.
func (m *Msg) bodyLen() int {
	n := headerLen
	switch m.Type {
	case TInsert:
		n += idspace.Bytes + 4 + len(m.Value)
	case TLookup, TDelete:
		n += idspace.Bytes + 4
	case TStats, TMembers:
	case TInsertOK:
		n += 5 * 4
	case TLookupOK:
		n += 1 + 6*4
	case TDeleteOK:
		n += 4
	case TStatsOK:
		n += 4 + 4*8 + 8*len(m.Stats.ShardRequests)
	case TMembersOK:
		n += 8 + 4 + 4
		for _, a := range m.Members {
			n += 2 + len(a)
		}
	case TPeerProbe:
		n += 8 + 4 + 2 + len(m.ClientAddr)
	case TPeerProbeOK:
		n += 8 + 4 + 8 + 2 + len(m.ClientAddr)
	case TRoute:
		n += 1 + 8 + m.traceLen() + idspace.Bytes + 4
		if m.RouteKind == TInsert {
			n += len(m.Value)
		}
	case TRepair:
		n += 8 + m.traceLen() + 4 + cursorLen
	case TRepairOK:
		n += 4 + 1 + cursorLen + 4 + entriesLen(m.Entries)
	case TReplicate:
		n += 1 + 8 + m.traceLen() + idspace.Bytes + 4
		if m.RouteKind == TInsert {
			n += len(m.Value)
		}
	case TReplicateOK:
	case TWrongView:
		n += 8
	case TError:
		n += len(m.Value)
	}
	return n
}

// traceLen is the encoded size of the trace trailer: the flags byte,
// plus the trace ID when the request is traced.
func (m *Msg) traceLen() int {
	if m.Traced {
		return 1 + 8
	}
	return 1
}

// entriesLen is the encoded size of an entry list.
func entriesLen(entries []Entry) int {
	n := 0
	for i := range entries {
		n += EntryOverhead + len(entries[i].Value)
	}
	return n
}

// Append encodes the message as one complete frame (length prefix
// included) appended to dst, returning the extended slice. With
// sufficient capacity in dst it performs no allocation. It returns
// ErrOversize when the body would exceed MaxFrame and ErrShards when a
// TStatsOK shard slice disagrees with its count.
func (m *Msg) Append(dst []byte) ([]byte, error) {
	body := m.bodyLen()
	if body > MaxFrame {
		return dst, ErrOversize
	}
	if m.Type == TStatsOK && int(m.Stats.Shards) != len(m.Stats.ShardRequests) {
		return dst, ErrShards
	}
	if m.Type == TRoute && m.RouteKind != TInsert && m.RouteKind != TLookup && m.RouteKind != TDelete {
		return dst, ErrRoute
	}
	if m.Type == TReplicate && m.RouteKind != TInsert && m.RouteKind != TDelete {
		return dst, ErrRepl
	}
	if m.Type == TRepairOK && !m.More && !m.Cursor.IsZero() {
		return dst, ErrCursor
	}
	if (m.Type == TPeerProbe || m.Type == TPeerProbeOK) && len(m.ClientAddr) > 0xFFFF {
		return dst, ErrAddr
	}
	if m.Type == TMembersOK {
		for _, a := range m.Members {
			if len(a) > 0xFFFF {
				return dst, ErrAddr
			}
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(m.Type))
	dst = binary.BigEndian.AppendUint64(dst, m.ReqID)
	switch m.Type {
	case TInsert:
		dst = append(dst, m.Key[:]...)
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
		dst = append(dst, m.Value...)
	case TLookup, TDelete:
		dst = append(dst, m.Key[:]...)
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
	case TStats, TMembers:
	case TInsertOK:
		r := &m.Insert
		dst = binary.BigEndian.AppendUint32(dst, r.Replicas)
		dst = binary.BigEndian.AppendUint32(dst, r.Messages)
		dst = binary.BigEndian.AppendUint32(dst, r.Duplicates)
		dst = binary.BigEndian.AppendUint32(dst, r.Flows)
		dst = binary.BigEndian.AppendUint32(dst, r.Dropped)
	case TLookupOK:
		r := &m.Lookup
		if r.Found {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.FirstReplyHops))
		dst = binary.BigEndian.AppendUint32(dst, r.Replies)
		dst = binary.BigEndian.AppendUint32(dst, r.Messages)
		dst = binary.BigEndian.AppendUint32(dst, r.Duplicates)
		dst = binary.BigEndian.AppendUint32(dst, r.Flows)
		dst = binary.BigEndian.AppendUint32(dst, r.Dropped)
	case TDeleteOK:
		dst = binary.BigEndian.AppendUint32(dst, m.Deleted)
	case TStatsOK:
		s := &m.Stats
		dst = binary.BigEndian.AppendUint32(dst, s.Shards)
		dst = binary.BigEndian.AppendUint64(dst, s.Inserts)
		dst = binary.BigEndian.AppendUint64(dst, s.Lookups)
		dst = binary.BigEndian.AppendUint64(dst, s.Deletes)
		dst = binary.BigEndian.AppendUint64(dst, s.Found)
		for _, v := range s.ShardRequests {
			dst = binary.BigEndian.AppendUint64(dst, v)
		}
	case TMembersOK:
		dst = binary.BigEndian.AppendUint64(dst, m.Cluster)
		dst = binary.BigEndian.AppendUint32(dst, m.Replication)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Members)))
		for _, a := range m.Members {
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(a)))
			dst = append(dst, a...)
		}
	case TPeerProbe:
		dst = binary.BigEndian.AppendUint64(dst, m.Cluster)
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.ClientAddr)))
		dst = append(dst, m.ClientAddr...)
	case TPeerProbeOK:
		dst = binary.BigEndian.AppendUint64(dst, m.Cluster)
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
		dst = binary.BigEndian.AppendUint64(dst, m.Held)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.ClientAddr)))
		dst = append(dst, m.ClientAddr...)
	case TRoute:
		dst = append(dst, byte(m.RouteKind))
		dst = binary.BigEndian.AppendUint64(dst, m.Cluster)
		dst = m.appendTrace(dst)
		dst = append(dst, m.Key[:]...)
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
		if m.RouteKind == TInsert {
			dst = append(dst, m.Value...)
		}
	case TRepair:
		dst = binary.BigEndian.AppendUint64(dst, m.Cluster)
		dst = m.appendTrace(dst)
		dst = binary.BigEndian.AppendUint32(dst, m.Region)
		dst = appendCursor(dst, m.Cursor)
	case TRepairOK:
		dst = binary.BigEndian.AppendUint32(dst, m.Region)
		if m.More {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendCursor(dst, m.Cursor)
		dst = appendEntries(dst, m.Entries)
	case TReplicate:
		dst = append(dst, byte(m.RouteKind))
		dst = binary.BigEndian.AppendUint64(dst, m.Cluster)
		dst = m.appendTrace(dst)
		dst = append(dst, m.Key[:]...)
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
		if m.RouteKind == TInsert {
			dst = append(dst, m.Value...)
		}
	case TReplicateOK:
	case TWrongView:
		dst = binary.BigEndian.AppendUint64(dst, m.Cluster)
	case TError:
		dst = append(dst, m.Value...)
	default:
		return dst[:len(dst)-body-lenWords], ErrType
	}
	return dst, nil
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
	case TInsert:
		if len(b) < idspace.Bytes+4 {
			return ErrShort
		}
		copy(m.Key[:], b)
		m.Origin = binary.BigEndian.Uint32(b[idspace.Bytes:])
		m.Value = append(m.Value[:0], b[idspace.Bytes+4:]...)
	case TLookup, TDelete:
		if len(b) != idspace.Bytes+4 {
			return sizeErr(len(b), idspace.Bytes+4)
		}
		copy(m.Key[:], b)
		m.Origin = binary.BigEndian.Uint32(b[idspace.Bytes:])
	case TStats, TMembers:
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
		switch b[0] {
		case 0:
			r.Found = false
		case 1:
			r.Found = true
		default:
			return ErrBool
		}
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
	case TPeerProbe:
		if len(b) < 8+4+2 {
			return ErrShort
		}
		m.Cluster = binary.BigEndian.Uint64(b[0:])
		m.Origin = binary.BigEndian.Uint32(b[8:])
		alen := int(binary.BigEndian.Uint16(b[12:]))
		if len(b) != 8+4+2+alen {
			return sizeErr(len(b), 8+4+2+alen)
		}
		m.ClientAddr = append(m.ClientAddr[:0], b[14:]...)
	case TPeerProbeOK:
		if len(b) < 8+4+8+2 {
			return ErrShort
		}
		m.Cluster = binary.BigEndian.Uint64(b[0:])
		m.Origin = binary.BigEndian.Uint32(b[8:])
		m.Held = binary.BigEndian.Uint64(b[12:])
		alen := int(binary.BigEndian.Uint16(b[20:]))
		if len(b) != 8+4+8+2+alen {
			return sizeErr(len(b), 8+4+8+2+alen)
		}
		m.ClientAddr = append(m.ClientAddr[:0], b[22:]...)
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
	case TRoute:
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
		switch m.RouteKind {
		case TInsert:
			m.Value = append(m.Value[:0], rest...)
		case TLookup, TDelete:
			if len(rest) != 0 {
				return ErrTrailing
			}
		default:
			return ErrRoute
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
		switch b[4] {
		case 0:
			m.More = false
		case 1:
			m.More = true
		default:
			return ErrBool
		}
		m.Cursor = decodeCursor(b[5:])
		if !m.More && !m.Cursor.IsZero() {
			return ErrCursor
		}
		if err := m.decodeEntries(b[5+cursorLen:]); err != nil {
			return err
		}
	case TReplicate:
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
		switch m.RouteKind {
		case TInsert:
			m.Value = append(m.Value[:0], rest...)
		case TDelete:
			if len(rest) != 0 {
				return ErrTrailing
			}
		default:
			return ErrRepl
		}
	case TReplicateOK:
		if len(b) != 0 {
			return ErrTrailing
		}
	case TWrongView:
		if len(b) != 8 {
			return sizeErr(len(b), 8)
		}
		m.Cluster = binary.BigEndian.Uint64(b)
	case TError:
		m.Value = append(m.Value[:0], b...)
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
