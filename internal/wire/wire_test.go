package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/qos"
)

// encodeOne runs one encoder call and returns the raw bytes.
func encodeOne(t *testing.T, f func(e *Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f(NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRequestRoundTrip(t *testing.T) {
	in := []Request{
		{Op: OpRead, Seq: 1, Addr: 0xdeadbeef},
		{Op: OpWrite, Seq: 2, Addr: 42, Data: []byte{1, 2, 3}},
		{Op: OpFlush, Seq: 3},
		{Op: OpStats, Seq: 1<<64 - 1},
	}
	raw := encodeOne(t, func(e *Encoder) error { return e.Requests(7, in) })
	dec := NewDecoder(bytes.NewReader(raw))
	f, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameRequests || f.Cycle != 7 {
		t.Fatalf("header = (%d, %d), want (%d, 7)", f.Type, f.Cycle, FrameRequests)
	}
	if !reflect.DeepEqual(f.Requests, in) {
		t.Fatalf("requests = %+v, want %+v", f.Requests, in)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestReplyAndCompletionRoundTrip(t *testing.T) {
	reps := []Reply{
		{Status: StatusAccepted, Seq: 9},
		{Status: StatusStall, Code: CodeBankQueue, Seq: 10},
		{Status: StatusDropped, Code: CodeDelayBuffer, Seq: 11},
		{Status: StatusFlushed, Seq: 12},
	}
	comps := []Completion{
		{Seq: 5, Addr: 77, IssuedAt: 100, DeliveredAt: 154, Data: []byte{0xff}},
		{Seq: 6, Addr: 78, IssuedAt: 101, DeliveredAt: 155, Flags: FlagUncorrectable, Data: []byte{}},
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Replies(3, reps); err != nil {
		t.Fatal(err)
	}
	if err := e.Completions(4, comps); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	f, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Replies, reps) {
		t.Fatalf("replies = %+v, want %+v", f.Replies, reps)
	}
	f, err = dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Completions) != 2 || f.Completions[0].DeliveredAt != 154 ||
		f.Completions[1].Flags != FlagUncorrectable || !bytes.Equal(f.Completions[0].Data, []byte{0xff}) {
		t.Fatalf("completions = %+v, want %+v", f.Completions, comps)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := Stats{
		Seq: 1, Cycle: 2, Delay: 54, Channels: 4, Conns: 5,
		Reads: 6, Writes: 7, Stalls: 8, Busy: 9, Dropped: 10,
		Completions: 11, Uncorrectable: 12, Outstanding: 13,
	}
	raw := encodeOne(t, func(e *Encoder) error { return e.Stats(99, in) })
	var f Frame
	if err := DecodeFrame(raw[4:], &f); err != nil {
		t.Fatal(err)
	}
	if f.Stats != in {
		t.Fatalf("stats = %+v, want %+v", f.Stats, in)
	}
}

func TestCodeErrRoundTrip(t *testing.T) {
	for _, err := range []error{
		core.ErrStallDelayBuffer, core.ErrStallBankQueue,
		core.ErrStallWriteBuffer, core.ErrStallCounter,
		core.ErrStallCodedPort, qos.ErrThrottled, ErrDraining,
	} {
		if got := ErrOf(CodeOf(err)); got != err { //nolint:errorlint // sentinel identity is the contract
			t.Errorf("ErrOf(CodeOf(%v)) = %v", err, got)
		}
	}
	if !errors.Is(ErrOf(CodeOther), core.ErrStall) {
		t.Error("CodeOther must still map to a stall")
	}
	if ErrOf(CodeNone) != nil {
		t.Error("CodeNone must map to nil")
	}
	// The throttle code is a stall (recovery policies apply); the
	// draining code is terminal — retrying against a draining server is
	// futile, so it must NOT read as a stall.
	if !errors.Is(ErrOf(CodeThrottled), core.ErrStall) {
		t.Error("CodeThrottled must map to a stall cause")
	}
	if errors.Is(ErrOf(CodeDraining), core.ErrStall) {
		t.Error("CodeDraining must not be a stall")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, in := range []Hello{
		{},
		{SessionID: 0xfeedface, Tenant: "attacker"},
		{SessionID: 1, Tenant: string(make([]byte, MaxTenant))},
	} {
		raw := encodeOne(t, func(e *Encoder) error { return e.Hello(in) })
		dec := NewDecoder(bytes.NewReader(raw))
		f, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameHello || f.Hello != in {
			t.Fatalf("hello = %+v (type %d), want %+v", f.Hello, f.Type, in)
		}
	}
	if err := NewEncoder(io.Discard).Hello(Hello{Tenant: string(make([]byte, MaxTenant+1))}); err == nil {
		t.Fatal("oversized tenant name accepted")
	}
}

func TestHelloDecodeErrors(t *testing.T) {
	valid := encodeOne(t, func(e *Encoder) error { return e.Hello(Hello{SessionID: 7, Tenant: "ab"}) })
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"two records", corrupt(func(b []byte) { binary.BigEndian.PutUint32(b[13:], 2) })},
		{"tenant overruns frame", corrupt(func(b []byte) { binary.BigEndian.PutUint16(b[25:], 200) })},
		{"trailing bytes", corrupt(func(b []byte) { binary.BigEndian.PutUint16(b[25:], 1) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDecoder(bytes.NewReader(tc.raw)).Next(); err == nil {
				t.Fatal("decode succeeded on malformed hello")
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encodeOne(t, func(e *Encoder) error {
		return e.Requests(0, []Request{{Op: OpWrite, Seq: 1, Addr: 2, Data: []byte{9, 9}}})
	})
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty payload", []byte{0, 0, 0, 0}},
		{"short header", []byte{0, 0, 0, 3, 1, 0, 0}},
		{"oversized length", func() []byte {
			b := corrupt(func(b []byte) { binary.BigEndian.PutUint32(b, MaxFrame+1) })
			return b
		}()},
		{"unknown frame type", corrupt(func(b []byte) { b[4] = 0x7f })},
		{"unknown opcode", corrupt(func(b []byte) { b[17] = 0x7f })},
		{"zero count", corrupt(func(b []byte) { binary.BigEndian.PutUint32(b[13:], 0) })},
		{"count overruns frame", corrupt(func(b []byte) { binary.BigEndian.PutUint32(b[13:], 1000) })},
		{"data on a read", corrupt(func(b []byte) { b[17] = OpRead })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(bytes.NewReader(tc.raw)).Next()
			if err == nil {
				t.Fatal("decode succeeded on malformed input")
			}
		})
	}
	t.Run("trailing garbage", func(t *testing.T) {
		raw := append([]byte(nil), valid...)
		raw = append(raw, 0xAA)
		binary.BigEndian.PutUint32(raw, uint32(len(raw)-4))
		if err := DecodeFrame(raw[4:], &Frame{}); err == nil {
			t.Fatal("trailing garbage accepted")
		}
	})
	t.Run("truncated stream", func(t *testing.T) {
		_, err := NewDecoder(bytes.NewReader(valid[:len(valid)-1])).Next()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

func TestEncodeRejectsOversize(t *testing.T) {
	e := NewEncoder(io.Discard)
	if err := e.Requests(0, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if err := e.Requests(0, make([]Request, MaxBatch+1)); err == nil {
		t.Error("oversized batch accepted")
	}
	if err := e.Requests(0, []Request{{Op: OpWrite, Data: make([]byte, MaxData+1)}}); err == nil {
		t.Error("oversized data accepted")
	}
}

// TestAppendMatchesEncoder pins the Append* functions to the Encoder
// byte for byte: the stream a batching writer builds from pooled
// buffers must be indistinguishable from the classic per-frame path.
func TestAppendMatchesEncoder(t *testing.T) {
	reqs := []Request{
		{Op: OpRead, Seq: 1, Addr: 42},
		{Op: OpWrite, Seq: 2, Addr: 43, Data: []byte("payload")},
		{Op: OpFlush, Seq: 3},
		{Op: OpStats, Seq: 4},
	}
	reps := []Reply{
		{Status: StatusAccepted, Seq: 2},
		{Status: StatusStall, Code: CodeBankQueue, Seq: 5},
	}
	comps := []Completion{
		{Seq: 1, Addr: 42, IssuedAt: 7, DeliveredAt: 19, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Seq: 9, Addr: 40, IssuedAt: 8, DeliveredAt: 20, Flags: FlagUncorrectable, Data: []byte{0xFF}},
	}
	st := Stats{Seq: 4, Cycle: 99, Delay: 12, Reads: 3}
	hello := Hello{SessionID: 0xDEAD, Tenant: "tenant-a"}

	var want bytes.Buffer
	enc := NewEncoder(&want)
	if err := enc.Hello(hello); err != nil {
		t.Fatal(err)
	}
	if err := enc.Requests(5, reqs); err != nil {
		t.Fatal(err)
	}
	if err := enc.Replies(6, reps); err != nil {
		t.Fatal(err)
	}
	if err := enc.Completions(7, comps); err != nil {
		t.Fatal(err)
	}
	if err := enc.Stats(8, st); err != nil {
		t.Fatal(err)
	}

	var got []byte
	var err error
	for _, step := range []func([]byte) ([]byte, error){
		func(b []byte) ([]byte, error) { return AppendHello(b, hello) },
		func(b []byte) ([]byte, error) { return AppendRequests(b, 5, reqs) },
		func(b []byte) ([]byte, error) { return AppendReplies(b, 6, reps) },
		func(b []byte) ([]byte, error) { return AppendCompletions(b, 7, comps) },
		func(b []byte) ([]byte, error) { return AppendStats(b, 8, st) },
	} {
		if got, err = step(got); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Append* stream (%d bytes) differs from Encoder stream (%d bytes)", len(got), want.Len())
	}
}

// TestAppendErrorRestoresDst verifies a failed Append leaves dst exactly
// as it was, so a batching writer can keep appending after a rejection.
func TestAppendErrorRestoresDst(t *testing.T) {
	dst, err := AppendReplies(nil, 1, []Reply{{Status: StatusAccepted, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), dst...)

	big := make([]byte, MaxData+1)
	dst2, err := AppendRequests(dst, 2, []Request{{Op: OpWrite, Seq: 9, Data: big}})
	if err == nil {
		t.Fatal("oversized request data must fail")
	}
	if !bytes.Equal(dst2[:len(before)], before) || len(dst2) != len(before) {
		t.Fatalf("failed Append mutated dst: len %d, want %d", len(dst2), len(before))
	}

	if _, err := AppendCompletions(dst2, 3, nil); err == nil {
		t.Fatal("empty batch must fail")
	}
}

// TestSizeFunctions pins Size* against the encoded output.
func TestSizeFunctions(t *testing.T) {
	reqs := []Request{{Op: OpRead, Seq: 1}, {Op: OpWrite, Seq: 2, Data: []byte("abcd")}}
	b, err := AppendRequests(nil, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := SizeRequests(reqs); got != len(b) {
		t.Fatalf("SizeRequests = %d, want %d", got, len(b))
	}

	reps := []Reply{{Status: StatusAccepted, Seq: 1}, {Status: StatusDropped, Code: CodeDraining, Seq: 2}, {Status: StatusFlushed, Seq: 3}}
	if b, err = AppendReplies(nil, 1, reps); err != nil {
		t.Fatal(err)
	}
	if got := SizeReplies(len(reps)); got != len(b) {
		t.Fatalf("SizeReplies = %d, want %d", got, len(b))
	}

	comps := []Completion{{Seq: 1, Data: make([]byte, 8)}, {Seq: 2, Data: make([]byte, 16)}}
	if b, err = AppendCompletions(nil, 1, comps); err != nil {
		t.Fatal(err)
	}
	if got := SizeCompletions(comps); got != len(b) {
		t.Fatalf("SizeCompletions = %d, want %d", got, len(b))
	}

	if b, err = AppendStats(nil, 1, Stats{}); err != nil {
		t.Fatal(err)
	}
	if SizeStats != len(b) {
		t.Fatalf("SizeStats = %d, want %d", SizeStats, len(b))
	}
}
