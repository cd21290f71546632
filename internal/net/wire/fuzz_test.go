package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// seedBodies returns valid request/response bodies used as fuzz seeds
// (alongside the committed corpus under testdata/fuzz).
func seedBodies(t interface{ Fatal(...any) }) [][]byte {
	var out [][]byte
	add := func(frame []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame[HeaderLen:])
	}
	add(AppendRegister(nil, "g", "m"))
	add(AppendUnregister(nil, "group", "member"))
	add(AppendLookup(nil, "g", "m"))
	add(AppendUnicast(nil, "g", "dst", []byte("payload")))
	add(AppendMulticast(nil, "g", nil))
	out = append(out, AppendOK(nil)[HeaderLen:])
	out = append(out, AppendBool(nil, true)[HeaderLen:])
	out = append(out, AppendErr(nil, CodeStall)[HeaderLen:])
	return out
}

// FuzzParseReq: any byte string either parses into a request whose
// re-encoding round-trips, or errors — it must never panic, and the
// parsed slices must stay inside the input body.
func FuzzParseReq(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindLookup), 10, 'g'})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseReq(body)
		if err != nil {
			return
		}
		// Re-encode and re-parse: the codec must agree with itself.
		var frame []byte
		switch req.Kind {
		case KindRegister:
			frame, err = AppendRegister(nil, string(req.Group), string(req.A))
		case KindUnregister:
			frame, err = AppendUnregister(nil, string(req.Group), string(req.A))
		case KindLookup:
			frame, err = AppendLookup(nil, string(req.Group), string(req.A))
		case KindUnicast:
			frame, err = AppendUnicast(nil, string(req.Group), string(req.A), req.Payload)
		case KindMulticast:
			frame, err = AppendMulticast(nil, string(req.Group), req.Payload)
		default:
			t.Fatalf("parse accepted unknown kind %v", req.Kind)
		}
		if err != nil {
			t.Fatalf("accepted request failed to re-encode: %v", err)
		}
		if !bytes.Equal(frame[HeaderLen:], body) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", body, frame[HeaderLen:])
		}
	})
}

// FuzzParseResp: same contract for the response parser.
func FuzzParseResp(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := ParseResp(body)
		if err != nil {
			return
		}
		var frame []byte
		switch resp.Kind {
		case KindOK:
			frame = AppendOK(nil)
		case KindBool:
			frame = AppendBool(nil, resp.Bool)
		case KindErr:
			frame = AppendErr(nil, resp.Code)
		default:
			t.Fatalf("parse accepted unknown kind %v", resp.Kind)
		}
		if !bytes.Equal(frame[HeaderLen:], body) {
			t.Fatalf("re-encode mismatch:\n in %x\nout %x", body, frame[HeaderLen:])
		}
	})
}

// chunkReader returns a stream a few bytes per Read (1 to 5, cycling),
// with io.EOF on the call that hands out the last bytes.
type chunkReader struct {
	b     []byte
	calls int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.calls++
	n := copy(p[:min(len(p), 1+c.calls%5)], c.b)
	c.b = c.b[n:]
	if len(c.b) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// FuzzReadFrame: arbitrary streams never panic the framer, and a Reader
// fed a few bytes at a time from a 4-byte buffer, mixing Buffered and
// Next, yields exactly the frames — and then the error — of a direct
// walk over the stream under the same 4096-byte cap.
func FuzzReadFrame(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(AppendFrame(nil, b))
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		const limit = 4096
		var want [][]byte
		wantErr := io.EOF
		for rest := stream; len(rest) > 0; {
			if len(rest) < HeaderLen {
				wantErr = io.ErrUnexpectedEOF
				break
			}
			n := int(binary.BigEndian.Uint32(rest))
			if n > limit {
				wantErr = ErrFrameTooLarge
				break
			}
			if len(rest)-HeaderLen < n {
				wantErr = io.ErrUnexpectedEOF
				break
			}
			want = append(want, rest[HeaderLen:HeaderLen+n])
			rest = rest[HeaderLen+n:]
		}

		fr := NewReader(&chunkReader{b: stream}, HeaderLen, limit)
		for i := 0; ; i++ {
			body, ok := fr.Buffered()
			var err error
			if !ok {
				body, err = fr.Next()
			}
			if err != nil {
				if i != len(want) || err != wantErr {
					t.Fatalf("after %d frames: %v; want %v after %d", i, err, wantErr, len(want))
				}
				return
			}
			if i >= len(want) || !bytes.Equal(body, want[i]) {
				t.Fatalf("frame %d = %x; want %d frames, then %v", i, body, len(want), wantErr)
			}
			_, _ = ParseReq(body) // must not panic
		}
	})
}
