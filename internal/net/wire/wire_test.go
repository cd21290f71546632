package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRequestRoundTrip: every encode helper's output parses back to the
// same request through Reader + ParseReq.
func TestRequestRoundTrip(t *testing.T) {
	payload := []byte("the payload \x00\xff bytes")
	cases := []struct {
		name string
		enc  func(dst []byte) ([]byte, error)
		want Req
	}{
		{"register", func(d []byte) ([]byte, error) { return AppendRegister(d, "g", "m") },
			Req{Kind: KindRegister, Group: []byte("g"), A: []byte("m")}},
		{"unregister", func(d []byte) ([]byte, error) { return AppendUnregister(d, "grp", "mem") },
			Req{Kind: KindUnregister, Group: []byte("grp"), A: []byte("mem")}},
		{"lookup", func(d []byte) ([]byte, error) { return AppendLookup(d, "g", "m") },
			Req{Kind: KindLookup, Group: []byte("g"), A: []byte("m")}},
		{"unicast", func(d []byte) ([]byte, error) { return AppendUnicast(d, "g", "dst", payload) },
			Req{Kind: KindUnicast, Group: []byte("g"), A: []byte("dst"), Payload: payload}},
		{"unicast-empty-payload", func(d []byte) ([]byte, error) { return AppendUnicast(d, "g", "dst", nil) },
			Req{Kind: KindUnicast, Group: []byte("g"), A: []byte("dst"), Payload: []byte{}}},
		{"multicast", func(d []byte) ([]byte, error) { return AppendMulticast(d, "g", payload) },
			Req{Kind: KindMulticast, Group: []byte("g"), Payload: payload}},
	}
	for _, tc := range cases {
		frame, err := tc.enc(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		body, err := readOne(frame, 0)
		if err != nil {
			t.Fatalf("%s: Next: %v", tc.name, err)
		}
		got, err := ParseReq(body)
		if err != nil {
			t.Fatalf("%s: ParseReq: %v", tc.name, err)
		}
		if got.Kind != tc.want.Kind || !bytes.Equal(got.Group, tc.want.Group) ||
			!bytes.Equal(got.A, tc.want.A) || !bytes.Equal(got.Payload, tc.want.Payload) {
			t.Fatalf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestResponseRoundTrip: the three response shapes survive the wire.
func TestResponseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		frame []byte
		want  Resp
	}{
		{AppendOK(nil), Resp{Kind: KindOK}},
		{AppendBool(nil, true), Resp{Kind: KindBool, Bool: true}},
		{AppendBool(nil, false), Resp{Kind: KindBool, Bool: false}},
		{AppendErr(nil, CodeShed), Resp{Kind: KindErr, Code: CodeShed}},
	} {
		body, err := readOne(tc.frame, 0)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got, err := ParseResp(body)
		if err != nil {
			t.Fatalf("ParseResp: %v", err)
		}
		if got != tc.want {
			t.Fatalf("got %+v, want %+v", got, tc.want)
		}
	}
}

// readOne decodes the first frame of a stream through a Reader whose
// buffer starts too small for any frame, so every call grows it.
func readOne(stream []byte, max int) ([]byte, error) {
	return NewReader(bytes.NewReader(stream), 0, max).Next()
}

// TestPipelinedFrames: multiple frames on one stream decode in order
// through one Reader — the server's per-connection shape.
func TestPipelinedFrames(t *testing.T) {
	var stream []byte
	var err error
	stream, err = AppendRegister(stream, "g", "m1")
	if err != nil {
		t.Fatal(err)
	}
	stream, err = AppendUnicast(stream, "g", "m1", []byte("p1"))
	if err != nil {
		t.Fatal(err)
	}
	stream, err = AppendLookup(stream, "g", "m1")
	if err != nil {
		t.Fatal(err)
	}
	fr := NewReader(bytes.NewReader(stream), 16, 0)
	var kinds []Kind
	for {
		body, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		req, err := ParseReq(body)
		if err != nil {
			t.Fatalf("ParseReq: %v", err)
		}
		kinds = append(kinds, req.Kind)
	}
	want := []Kind{KindRegister, KindUnicast, KindLookup}
	if len(kinds) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("frame %d: kind %v, want %v", i, kinds[i], want[i])
		}
	}
}

// TestMalformed: truncation at every prefix of a valid frame, trailing
// garbage, empty names, unknown kinds — all error, none panic.
func TestMalformed(t *testing.T) {
	frame, err := AppendUnicast(nil, "grp", "dst", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of the stream either hits EOF (header cut) or
	// ErrUnexpectedEOF (body cut) — never a parse success.
	for i := 0; i < len(frame); i++ {
		_, err := readOne(frame[:i], 0)
		if err == nil {
			t.Fatalf("prefix %d: Next succeeded on truncated input", i)
		}
	}
	// Truncated bodies handed straight to ParseReq.
	body, err := readOne(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ParseReq(body)
	if err != nil || full.Kind != KindUnicast {
		t.Fatalf("full body must parse, got %v", err)
	}
	// A fixed-shape request with trailing garbage is malformed.
	reg, err := AppendRegister(nil, "g", "m")
	if err != nil {
		t.Fatal(err)
	}
	regBody := append(append([]byte(nil), reg[HeaderLen:]...), 0xAA)
	if _, err := ParseReq(regBody); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing garbage: got %v, want ErrMalformed", err)
	}
	// Name length pointing past the body.
	if _, err := ParseReq([]byte{byte(KindLookup), 10, 'g'}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overlong name length: got %v, want ErrMalformed", err)
	}
	// Empty name.
	if _, err := ParseReq([]byte{byte(KindLookup), 0, 1, 'm'}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty name: got %v, want ErrMalformed", err)
	}
	// Unknown kind.
	if _, err := ParseReq([]byte{0x7f, 1, 'g'}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown kind: got %v, want ErrMalformed", err)
	}
	// Empty body.
	if _, err := ParseReq(nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty body: got %v, want ErrMalformed", err)
	}
	// Response parser on the same classes.
	if _, err := ParseResp([]byte{byte(KindOK), 0}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized OK: got %v, want ErrMalformed", err)
	}
	if _, err := ParseResp([]byte{byte(KindBool), 2}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bool out of range: got %v, want ErrMalformed", err)
	}
}

// TestOversized: a length prefix past the cap is refused before the
// body is read, under both the protocol cap and a caller cap.
func TestOversized(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readOne(huge, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("4GiB prefix: got %v, want ErrFrameTooLarge", err)
	}
	frame, err := AppendMulticast(nil, "g", bytes.Repeat([]byte{'x'}, 1024))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(frame, 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("caller cap: got %v, want ErrFrameTooLarge", err)
	}
	// Encode side refuses to build an oversized frame at all.
	if _, err := AppendMulticast(nil, "g", make([]byte, MaxBody)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("encode oversize: got %v, want ErrFrameTooLarge", err)
	}
	if _, err := AppendRegister(nil, strings.Repeat("g", 256), "m"); !errors.Is(err, ErrBadName) {
		t.Fatalf("encode long name: got %v, want ErrBadName", err)
	}
	if _, err := AppendLookup(nil, "", "m"); !errors.Is(err, ErrBadName) {
		t.Fatalf("encode empty name: got %v, want ErrBadName", err)
	}
}

// TestDecodeAllocs: ParseReq and ParseResp are allocation-free, and a
// Reader stops allocating once its buffer has grown to the frame size —
// the wire half of the server's 0 allocs/op discipline.
func TestDecodeAllocs(t *testing.T) {
	frame, err := AppendUnicast(nil, "group-name", "member-name", bytes.Repeat([]byte{'p'}, 256))
	if err != nil {
		t.Fatal(err)
	}
	body := frame[HeaderLen:]
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := ParseReq(body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseReq allocs/op = %v, want 0", n)
	}
	ok := AppendOK(nil)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := ParseResp(ok[HeaderLen:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseResp allocs/op = %v, want 0", n)
	}
	r := bytes.NewReader(frame)
	fr := NewReader(r, 0, 0)
	if n := testing.AllocsPerRun(1000, func() {
		r.Reset(frame)
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Reader steady-state allocs/op = %v, want 0", n)
	}
}

// countingReader hands out at most chunk bytes per Read and counts the
// calls.
type countingReader struct {
	b     []byte
	chunk int
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.b)
	c.b = c.b[n:]
	return n, nil
}

// TestReaderBatchInPlace: Buffered takes the complete frames behind the
// one Next returned without reading, and every body of the batch stays
// intact until the following Next — the contract the server's pipelined
// batch rests on. A frame split across reads and a frame larger than the
// buffer decode the same.
func TestReaderBatchInPlace(t *testing.T) {
	var stream []byte
	var want [][]byte
	for i := 0; i < 6; i++ {
		f, err := AppendUnicast(nil, "g", "m", bytes.Repeat([]byte{byte('a' + i)}, 10*i))
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, f...)
		want = append(want, f[HeaderLen:])
	}
	big, err := AppendMulticast(nil, "g", bytes.Repeat([]byte{'z'}, 300))
	if err != nil {
		t.Fatal(err)
	}
	stream = append(stream, big...)
	want = append(want, big[HeaderLen:])

	// The first read takes the first three frames and part of the
	// fourth: Next returns one, Buffered the next two, and stops short
	// of the cut frame without reading.
	cut := 0
	for _, b := range want[:3] {
		cut += HeaderLen + len(b)
	}
	src := &countingReader{b: stream, chunk: cut + 5}
	fr := NewReader(src, 128, 0)
	var batch [][]byte
	body, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	batch = append(batch, body)
	for {
		body, ok := fr.Buffered()
		if !ok {
			break
		}
		batch = append(batch, body)
	}
	if len(batch) != 3 || src.reads != 1 {
		t.Fatalf("first batch: %d frames after %d reads, want 3 after 1", len(batch), src.reads)
	}
	for i, b := range batch {
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("batch frame %d = %q, want %q", i, b, want[i])
		}
	}
	// The rest — the cut frame, two more, the 300-byte multicast past
	// the 128-byte buffer — arrive a few bytes per read.
	src.chunk = 7
	for i := 3; i < len(want); i++ {
		body, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(body, want[i]) {
			t.Fatalf("frame %d = %q, want %q", i, body, want[i])
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	if _, ok := fr.Buffered(); ok {
		t.Fatal("Buffered returned a frame past the end of the stream")
	}
}
