// Package wire defines the binary frame protocol that connects the
// vpnmd engine (internal/server) to its clients (internal/client). The
// protocol carries the VPNM interface over a byte stream without
// weakening its contract: requests are batched into one frame per
// interface cycle on the sending side, every read completion travels
// with the IssuedAt/DeliveredAt cycle stamps that prove the fixed-D
// invariant end to end, and the controller's stall taxonomy crosses the
// wire as one-byte cause codes so a remote client can apply the same
// recovery policies (internal/recovery) an in-process device would.
//
// Framing is length-prefixed: a big-endian uint32 payload length, then
// the payload. Every payload starts with a fixed header
//
//	u8 frame type | u64 cycle | u32 record count
//
// followed by `count` records whose layout depends on the type.
// Decoding is strict — unknown types and opcodes, counts that cannot
// fit the remaining bytes, oversized payloads and trailing garbage are
// all errors, never panics — and allocation is bounded by the received
// byte count, so a hostile peer cannot make the decoder over-allocate.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/qos"
)

// Protocol limits. A frame longer than MaxFrame or a batch larger than
// MaxBatch is rejected outright; MaxData bounds a single record's
// payload (a memory word) and MaxTenant a tenant name.
const (
	MaxFrame  = 1 << 20
	MaxBatch  = 8192
	MaxData   = 4096
	MaxTenant = 256

	headerLen = 1 + 8 + 4 // type, cycle, count

	reqFixed   = 1 + 8 + 8 + 2         // op, seq, addr, data length
	replyLen   = 1 + 1 + 8             // status, code, seq
	compFixed  = 1 + 8 + 8 + 8 + 8 + 2 // flags, seq, addr, issued, delivered, data length
	statsLen   = 13 * 8                // thirteen u64 fields, in order
	helloFixed = 8 + 2                 // session id, tenant name length
	lenPrefix  = 4
	maxPayload = MaxFrame - lenPrefix
)

// Frame types.
const (
	// FrameRequests carries a batch of client requests — at most one
	// frame per client interface cycle.
	FrameRequests byte = iota + 1
	// FrameReplies carries accept/stall/drop/flush verdicts.
	FrameReplies
	// FrameCompletions carries read completions with their cycle stamps.
	FrameCompletions
	// FrameStats carries one server statistics snapshot.
	FrameStats
	// FrameHello identifies the client to the server: a session id (so
	// a reconnecting client resumes its in-flight window against the
	// same server-side session, with replays deduplicated by seq) and a
	// tenant name (the QoS principal whose token bucket regulates the
	// connection). Sent once, before any request frame; optional — a
	// connection that opens with requests gets an anonymous,
	// non-resumable session under the default tenant limit.
	FrameHello
)

// Request opcodes.
const (
	// OpRead requests the word at Addr; the completion echoes Seq.
	OpRead byte = iota + 1
	// OpWrite stores Data at Addr; acceptance is acknowledged by a
	// StatusAccepted reply.
	OpWrite
	// OpFlush is a barrier: the server replies StatusFlushed once every
	// read this connection issued before the flush has completed.
	OpFlush
	// OpStats requests a FrameStats snapshot.
	OpStats
)

// Reply statuses.
const (
	// StatusAccepted acknowledges an accepted write. Reads are not
	// acknowledged — their completion is the acknowledgement.
	StatusAccepted byte = iota + 1
	// StatusStall reports that the memory stalled the request and the
	// server's policy surfaces stalls; Code carries the cause and the
	// client's recovery policy decides whether to retry or drop.
	StatusStall
	// StatusDropped reports that the server abandoned the request
	// (retry budget exhausted, or the request was malformed).
	StatusDropped
	// StatusFlushed resolves an OpFlush barrier.
	StatusFlushed
)

// Stall/cause codes, mirroring the core error taxonomy.
const (
	CodeNone byte = iota
	CodeDelayBuffer
	CodeBankQueue
	CodeWriteBuffer
	CodeCounter
	CodeOther
	// CodeThrottled carries qos.ErrThrottled: the tenant's token bucket
	// refused the issue. It is a stall cause like the others — the
	// client's recovery policy decides whether to retry or drop.
	CodeThrottled
	// CodeDraining reports that the server is draining and refuses new
	// work; unlike a stall this is terminal for the request on this
	// server, so it travels with StatusDropped.
	CodeDraining
	// CodeCodedPort carries core.ErrStallCodedPort: in coded mode no
	// direct bank port or parity-decode combination covered the read
	// this cycle. Appended after CodeDraining — codes are wire format
	// and must never be renumbered.
	CodeCodedPort
)

// ErrDraining is the cause attached to requests refused because the
// server is draining. It is deliberately NOT a stall: retrying against
// a draining server is futile, so clients surface it as a drop.
var ErrDraining = errors.New("wire: server draining")

// Completion flag bits.
const (
	// FlagUncorrectable marks a completion whose payload failed ECC with
	// a multi-bit error: on time, untrusted (core.ErrUncorrectable).
	FlagUncorrectable byte = 1 << 0
)

// CodeOf maps a controller stall error to its wire code.
func CodeOf(err error) byte {
	switch {
	case err == nil:
		return CodeNone
	case errors.Is(err, core.ErrStallDelayBuffer):
		return CodeDelayBuffer
	case errors.Is(err, core.ErrStallBankQueue):
		return CodeBankQueue
	case errors.Is(err, core.ErrStallWriteBuffer):
		return CodeWriteBuffer
	case errors.Is(err, core.ErrStallCounter):
		return CodeCounter
	case errors.Is(err, core.ErrStallCodedPort):
		return CodeCodedPort
	case errors.Is(err, qos.ErrThrottled):
		return CodeThrottled
	case errors.Is(err, ErrDraining):
		return CodeDraining
	default:
		return CodeOther
	}
}

// ErrOf maps a wire code back to the corresponding core sentinel, so
// errors.Is(err, core.ErrStall) works on the client exactly as it does
// in-process. CodeNone maps to nil and CodeOther to bare core.ErrStall.
func ErrOf(code byte) error {
	switch code {
	case CodeNone:
		return nil
	case CodeDelayBuffer:
		return core.ErrStallDelayBuffer
	case CodeBankQueue:
		return core.ErrStallBankQueue
	case CodeWriteBuffer:
		return core.ErrStallWriteBuffer
	case CodeCounter:
		return core.ErrStallCounter
	case CodeCodedPort:
		return core.ErrStallCodedPort
	case CodeThrottled:
		return qos.ErrThrottled
	case CodeDraining:
		return ErrDraining
	default:
		return core.ErrStall
	}
}

// Hello is the connection-opening identification record.
type Hello struct {
	// SessionID names the server-side session this connection binds to.
	// A reconnecting client presents the same id to resume its in-flight
	// window; zero requests a fresh anonymous session.
	SessionID uint64
	// Tenant is the QoS principal; empty selects the default tenant.
	Tenant string
}

// Request is one client request record.
type Request struct {
	Op   byte
	Seq  uint64
	Addr uint64
	Data []byte // writes only; nil otherwise
}

// Reply is one server verdict record.
type Reply struct {
	Status byte
	Code   byte // stall/drop cause; CodeNone when not applicable
	Seq    uint64
}

// Completion is one read completion record. IssuedAt and DeliveredAt
// are the server's interface cycles; their difference is the normalized
// delay D on every non-dropped read, which clients verify end to end.
type Completion struct {
	Seq         uint64
	Addr        uint64
	IssuedAt    uint64
	DeliveredAt uint64
	Flags       byte
	Data        []byte
}

// Stats is a server statistics snapshot, echoing the Seq of the OpStats
// request that asked for it.
type Stats struct {
	Seq           uint64
	Cycle         uint64
	Delay         uint64
	Channels      uint64
	Conns         uint64
	Reads         uint64 // reads accepted by the memory
	Writes        uint64 // writes accepted by the memory
	Stalls        uint64 // stalls surfaced to clients
	Busy          uint64 // channel-busy retries absorbed by the server
	Dropped       uint64 // requests abandoned by the server
	Completions   uint64 // completions delivered to clients
	Uncorrectable uint64 // completions flagged ErrUncorrectable
	Outstanding   uint64 // reads accepted but not yet delivered
}

// ErrFrame is wrapped by every decode error.
var ErrFrame = errors.New("wire: malformed frame")

// Frame is one decoded frame. Exactly one of the record slices (or
// Stats, for FrameStats) is populated, according to Type. All record
// slices and Data fields alias the decoder's internal buffer and are
// valid only until the next call to Decoder.Next.
type Frame struct {
	Type        byte
	Cycle       uint64
	Requests    []Request
	Replies     []Reply
	Completions []Completion
	Stats       Stats
	Hello       Hello
}

// Encoder writes frames to a stream. It is not safe for concurrent use;
// callers serialize writers per connection.
//
// Each method appends the frame into a reused internal buffer (via the
// Append* functions below) and hands it to the stream as one Write, so
// steady-state encoding is allocation-free once the buffer has grown to
// the working frame size. Callers that batch several frames into one
// syscall (the data-plane hot path) skip the Encoder and use Append*
// into a buffer they own directly.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

func checkBatch(n int) error {
	if n < 1 || n > MaxBatch {
		return fmt.Errorf("wire: batch of %d records outside [1, %d]", n, MaxBatch)
	}
	return nil
}

// The Append* functions encode one complete frame — length prefix
// included — onto the end of dst and return the extended slice, exactly
// the bytes the corresponding Encoder method would have written. They
// are the allocation-free core of the codec: given a dst with enough
// capacity (see the Size* functions; on the data plane, a buffer its
// writer reuses for every batch), they never allocate. On a validation
// error dst is returned truncated to its original length, so a
// partially appended frame never leaks into the stream.

// appendHeader opens a frame: a zero length prefix to be patched by
// finishFrame, then the fixed payload header.
func appendHeader(dst []byte, typ byte, cycle uint64, count int) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	dst = binary.BigEndian.AppendUint64(dst, cycle)
	dst = binary.BigEndian.AppendUint32(dst, uint32(count))
	return dst, start
}

// finishFrame patches the length prefix of the frame opened at start.
func finishFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - lenPrefix
	if n > maxPayload {
		return dst[:start], fmt.Errorf("wire: frame payload %d exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// SizeRequests returns the exact encoded size of a FrameRequests frame
// carrying reqs, length prefix included.
func SizeRequests(reqs []Request) int {
	n := lenPrefix + headerLen + len(reqs)*reqFixed
	for i := range reqs {
		n += len(reqs[i].Data)
	}
	return n
}

// SizeReplies returns the exact encoded size of a FrameReplies frame
// carrying n records, length prefix included.
func SizeReplies(n int) int { return lenPrefix + headerLen + n*replyLen }

// SizeCompletions returns the exact encoded size of a FrameCompletions
// frame carrying comps, length prefix included.
func SizeCompletions(comps []Completion) int {
	n := lenPrefix + headerLen + len(comps)*compFixed
	for i := range comps {
		n += len(comps[i].Data)
	}
	return n
}

// SizeWordCompletions returns the exact encoded size of a
// FrameCompletions frame carrying n completions of word bytes each,
// length prefix included.
func SizeWordCompletions(n, word int) int { return lenPrefix + headerLen + n*(compFixed+word) }

// SizeStats is the exact encoded size of a FrameStats frame.
const SizeStats = lenPrefix + headerLen + statsLen

// FitRequests returns the largest n, at least 1 and at most
// min(len(reqs), MaxBatch), such that reqs[:n] encodes into a single
// frame within MaxFrame.
func FitRequests(reqs []Request) int {
	size := lenPrefix + headerLen
	for i := range reqs {
		if i == MaxBatch {
			return i
		}
		rec := reqFixed + len(reqs[i].Data)
		if i > 0 && size+rec > MaxFrame {
			return i
		}
		size += rec
	}
	return len(reqs)
}

// FitCompletions returns the largest n, at least 1 and at most
// min(len(comps), MaxBatch), such that comps[:n] encodes into a single
// frame within MaxFrame. Batching writers use it to chunk a drained
// completion backlog: a chunk of FitCompletions records always encodes
// without error.
func FitCompletions(comps []Completion) int {
	size := lenPrefix + headerLen
	for i := range comps {
		if i == MaxBatch {
			return i
		}
		rec := compFixed + len(comps[i].Data)
		if i > 0 && size+rec > MaxFrame {
			return i
		}
		size += rec
	}
	return len(comps)
}

// AppendRequests appends one encoded FrameRequests frame to dst.
func AppendRequests(dst []byte, cycle uint64, reqs []Request) ([]byte, error) {
	if err := checkBatch(len(reqs)); err != nil {
		return dst, err
	}
	dst, start := appendHeader(dst, FrameRequests, cycle, len(reqs))
	for i := range reqs {
		r := &reqs[i]
		if len(r.Data) > MaxData {
			return dst[:start], fmt.Errorf("wire: request data %d exceeds MaxData", len(r.Data))
		}
		dst = append(dst, r.Op)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
		dst = binary.BigEndian.AppendUint64(dst, r.Addr)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Data)))
		dst = append(dst, r.Data...)
	}
	return finishFrame(dst, start)
}

// AppendReplies appends one encoded FrameReplies frame to dst.
func AppendReplies(dst []byte, cycle uint64, reps []Reply) ([]byte, error) {
	if err := checkBatch(len(reps)); err != nil {
		return dst, err
	}
	dst, start := appendHeader(dst, FrameReplies, cycle, len(reps))
	for i := range reps {
		r := &reps[i]
		dst = append(dst, r.Status, r.Code)
		dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	}
	return finishFrame(dst, start)
}

// AppendCompletions appends one encoded FrameCompletions frame to dst.
func AppendCompletions(dst []byte, cycle uint64, comps []Completion) ([]byte, error) {
	if err := checkBatch(len(comps)); err != nil {
		return dst, err
	}
	dst, start := appendHeader(dst, FrameCompletions, cycle, len(comps))
	for i := range comps {
		c := &comps[i]
		if len(c.Data) > MaxData {
			return dst[:start], fmt.Errorf("wire: completion data %d exceeds MaxData", len(c.Data))
		}
		dst = append(dst, c.Flags)
		dst = binary.BigEndian.AppendUint64(dst, c.Seq)
		dst = binary.BigEndian.AppendUint64(dst, c.Addr)
		dst = binary.BigEndian.AppendUint64(dst, c.IssuedAt)
		dst = binary.BigEndian.AppendUint64(dst, c.DeliveredAt)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.Data)))
		dst = append(dst, c.Data...)
	}
	return finishFrame(dst, start)
}

// AppendStats appends one encoded FrameStats frame to dst.
func AppendStats(dst []byte, cycle uint64, s Stats) ([]byte, error) {
	dst, start := appendHeader(dst, FrameStats, cycle, 1)
	for _, v := range s.fields() {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return finishFrame(dst, start)
}

// AppendHello appends one encoded FrameHello frame to dst.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	if len(h.Tenant) > MaxTenant {
		return dst, fmt.Errorf("wire: tenant name %d bytes exceeds MaxTenant", len(h.Tenant))
	}
	dst, start := appendHeader(dst, FrameHello, 0, 1)
	dst = binary.BigEndian.AppendUint64(dst, h.SessionID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Tenant)))
	dst = append(dst, h.Tenant...)
	return finishFrame(dst, start)
}

func (e *Encoder) send(b []byte, err error) error {
	e.buf = b
	if err != nil {
		return err
	}
	_, err = e.w.Write(b)
	return err
}

// Requests encodes one FrameRequests frame.
func (e *Encoder) Requests(cycle uint64, reqs []Request) error {
	return e.send(AppendRequests(e.buf[:0], cycle, reqs))
}

// Replies encodes one FrameReplies frame.
func (e *Encoder) Replies(cycle uint64, reps []Reply) error {
	return e.send(AppendReplies(e.buf[:0], cycle, reps))
}

// Completions encodes one FrameCompletions frame.
func (e *Encoder) Completions(cycle uint64, comps []Completion) error {
	return e.send(AppendCompletions(e.buf[:0], cycle, comps))
}

// Stats encodes one FrameStats frame.
func (e *Encoder) Stats(cycle uint64, s Stats) error {
	return e.send(AppendStats(e.buf[:0], cycle, s))
}

// Hello encodes one FrameHello frame.
func (e *Encoder) Hello(h Hello) error {
	return e.send(AppendHello(e.buf[:0], h))
}

func (s *Stats) fields() [13]uint64 {
	return [13]uint64{
		s.Seq, s.Cycle, s.Delay, s.Channels, s.Conns,
		s.Reads, s.Writes, s.Stalls, s.Busy, s.Dropped,
		s.Completions, s.Uncorrectable, s.Outstanding,
	}
}

func (s *Stats) setFields(v [13]uint64) {
	s.Seq, s.Cycle, s.Delay, s.Channels, s.Conns = v[0], v[1], v[2], v[3], v[4]
	s.Reads, s.Writes, s.Stalls, s.Busy, s.Dropped = v[5], v[6], v[7], v[8], v[9]
	s.Completions, s.Uncorrectable, s.Outstanding = v[10], v[11], v[12]
}

// Decoder reads frames from a stream. It is not safe for concurrent
// use. The Frame returned by Next is reused by the following call.
type Decoder struct {
	r       *bufio.Reader
	payload []byte
	f       Frame
	// lb is the length-prefix scratch. A field rather than a local:
	// passing a stack array's slice to the io.Reader interface makes it
	// escape, which would cost one heap allocation per frame.
	lb [lenPrefix]byte
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads and decodes one frame. It returns io.EOF on a clean close
// at a frame boundary and io.ErrUnexpectedEOF on a mid-frame close.
func (d *Decoder) Next() (*Frame, error) {
	if _, err := io.ReadFull(d.r, d.lb[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(d.lb[:]))
	if n < headerLen || n > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d outside [%d, %d]", ErrFrame, n, headerLen, maxPayload)
	}
	if cap(d.payload) < n {
		d.payload = make([]byte, n)
	}
	d.payload = d.payload[:n]
	if _, err := io.ReadFull(d.r, d.payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if err := DecodeFrame(d.payload, &d.f); err != nil {
		return nil, err
	}
	return &d.f, nil
}

// DecodeFrame decodes one frame payload (everything after the length
// prefix) into f. Record slices and Data fields alias payload. The
// record count is validated against the payload size before any slice
// is sized, so allocation never exceeds a small multiple of the input.
func DecodeFrame(payload []byte, f *Frame) error {
	if len(payload) < headerLen {
		return fmt.Errorf("%w: %d bytes, want at least %d", ErrFrame, len(payload), headerLen)
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("%w: payload length %d exceeds MaxFrame", ErrFrame, len(payload))
	}
	f.Type = payload[0]
	f.Cycle = binary.BigEndian.Uint64(payload[1:9])
	count := int(binary.BigEndian.Uint32(payload[9:headerLen]))
	f.Requests = f.Requests[:0]
	f.Replies = f.Replies[:0]
	f.Completions = f.Completions[:0]
	f.Stats = Stats{}
	f.Hello = Hello{}
	if err := checkBatch(count); err != nil {
		return fmt.Errorf("%w: %v", ErrFrame, err)
	}
	b := payload[headerLen:]
	var min int
	switch f.Type {
	case FrameRequests:
		min = reqFixed
	case FrameReplies:
		min = replyLen
	case FrameCompletions:
		min = compFixed
	case FrameStats:
		min = statsLen
	case FrameHello:
		min = helloFixed
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrFrame, f.Type)
	}
	if count*min > len(b) {
		return fmt.Errorf("%w: %d records cannot fit %d bytes", ErrFrame, count, len(b))
	}
	var err error
	switch f.Type {
	case FrameRequests:
		b, err = decodeRequests(b, count, f)
	case FrameReplies:
		b, err = decodeReplies(b, count, f)
	case FrameCompletions:
		b, err = decodeCompletions(b, count, f)
	case FrameStats:
		if count != 1 {
			return fmt.Errorf("%w: stats frame with %d records", ErrFrame, count)
		}
		var v [13]uint64
		for i := range v {
			v[i] = binary.BigEndian.Uint64(b[8*i:])
		}
		f.Stats.setFields(v)
		b = b[statsLen:]
	case FrameHello:
		if count != 1 {
			return fmt.Errorf("%w: hello frame with %d records", ErrFrame, count)
		}
		f.Hello.SessionID = binary.BigEndian.Uint64(b[:8])
		tlen := int(binary.BigEndian.Uint16(b[8:helloFixed]))
		b = b[helloFixed:]
		if tlen > MaxTenant {
			return fmt.Errorf("%w: tenant name %d bytes exceeds MaxTenant", ErrFrame, tlen)
		}
		if tlen > len(b) {
			return fmt.Errorf("%w: hello tenant name overruns frame", ErrFrame)
		}
		f.Hello.Tenant = string(b[:tlen])
		b = b[tlen:]
	}
	if err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %d records", ErrFrame, len(b), count)
	}
	return nil
}

func decodeRequests(b []byte, count int, f *Frame) ([]byte, error) {
	for i := 0; i < count; i++ {
		if len(b) < reqFixed {
			return nil, fmt.Errorf("%w: truncated request record %d", ErrFrame, i)
		}
		r := Request{
			Op:   b[0],
			Seq:  binary.BigEndian.Uint64(b[1:9]),
			Addr: binary.BigEndian.Uint64(b[9:17]),
		}
		if r.Op < OpRead || r.Op > OpStats {
			return nil, fmt.Errorf("%w: unknown opcode %d", ErrFrame, r.Op)
		}
		dlen := int(binary.BigEndian.Uint16(b[17:reqFixed]))
		b = b[reqFixed:]
		if dlen > MaxData {
			return nil, fmt.Errorf("%w: request data %d exceeds MaxData", ErrFrame, dlen)
		}
		if dlen > len(b) {
			return nil, fmt.Errorf("%w: request record %d data overruns frame", ErrFrame, i)
		}
		if dlen > 0 {
			if r.Op != OpWrite {
				return nil, fmt.Errorf("%w: data on non-write opcode %d", ErrFrame, r.Op)
			}
			r.Data = b[:dlen:dlen]
			b = b[dlen:]
		}
		f.Requests = append(f.Requests, r)
	}
	return b, nil
}

func decodeReplies(b []byte, count int, f *Frame) ([]byte, error) {
	for i := 0; i < count; i++ {
		r := Reply{
			Status: b[0],
			Code:   b[1],
			Seq:    binary.BigEndian.Uint64(b[2:replyLen]),
		}
		if r.Status < StatusAccepted || r.Status > StatusFlushed {
			return nil, fmt.Errorf("%w: unknown reply status %d", ErrFrame, r.Status)
		}
		b = b[replyLen:]
		f.Replies = append(f.Replies, r)
	}
	return b, nil
}

func decodeCompletions(b []byte, count int, f *Frame) ([]byte, error) {
	for i := 0; i < count; i++ {
		if len(b) < compFixed {
			return nil, fmt.Errorf("%w: truncated completion record %d", ErrFrame, i)
		}
		c := Completion{
			Flags:       b[0],
			Seq:         binary.BigEndian.Uint64(b[1:9]),
			Addr:        binary.BigEndian.Uint64(b[9:17]),
			IssuedAt:    binary.BigEndian.Uint64(b[17:25]),
			DeliveredAt: binary.BigEndian.Uint64(b[25:33]),
		}
		dlen := int(binary.BigEndian.Uint16(b[33:compFixed]))
		b = b[compFixed:]
		if dlen > MaxData {
			return nil, fmt.Errorf("%w: completion data %d exceeds MaxData", ErrFrame, dlen)
		}
		if dlen > len(b) {
			return nil, fmt.Errorf("%w: completion record %d data overruns frame", ErrFrame, i)
		}
		c.Data = b[:dlen:dlen]
		b = b[dlen:]
		f.Completions = append(f.Completions, c)
	}
	return b, nil
}

// PoolStats is the ledger of the retired frame-buffer pool. Nothing
// fills it any more, so it is always zero. It stays only because the
// wall-clock benchmark (benchmark/run.go) still compiles against it
// through client.Client.PoolStats.
type PoolStats struct {
	Gets, Misses uint64
}
