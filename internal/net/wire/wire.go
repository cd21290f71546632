// Package wire is the gossip router's binary wire protocol: compact
// length-prefixed frames designed so the server's steady-state
// decode→handle→encode path allocates nothing.
//
// Frame layout (all integers big-endian):
//
//	frame    := length:uint32 | body            length = len(body), ≤ MaxBody
//	body     := kind:byte | fields
//
// Request bodies:
//
//	Register   := 0x01 | name(group) | name(member)
//	Unregister := 0x02 | name(group) | name(member)
//	Unicast    := 0x03 | name(group) | name(dst) | payload…
//	Multicast  := 0x04 | name(group) | payload…
//	Lookup     := 0x05 | name(group) | name(member)
//
//	name       := len:uint8 | bytes              len ≥ 1 (empty names are malformed)
//	payload    := the remainder of the body (may be empty)
//
// Response bodies:
//
//	OK    := 0x10
//	Bool  := 0x11 | value:byte                   lookup result (0 or 1)
//	Err   := 0x1f | code:byte                    see the Code* constants
//
// The decoder never allocates: Reader hands out frame bodies inside its
// own read buffer and ParseReq returns subslices of the body it was
// handed, so a request is parsed where the read left it (the server
// interns names per connection before the buffer is reused).
// Malformed input — truncated names, trailing garbage on fixed-shape
// requests, oversized frames, unknown kinds — returns an error, never
// panics: the fuzz corpus in testdata pins that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind is the frame discriminator byte.
type Kind byte

// Request and response kinds.
const (
	KindInvalid    Kind = 0x00
	KindRegister   Kind = 0x01
	KindUnregister Kind = 0x02
	KindUnicast    Kind = 0x03
	KindMulticast  Kind = 0x04
	KindLookup     Kind = 0x05

	KindOK   Kind = 0x10
	KindBool Kind = 0x11
	KindErr  Kind = 0x1f

	// KindMax bounds the discriminator space; the server sizes its
	// per-frame-type counter arrays with it.
	KindMax = 0x20
)

// String names the kind for counters and diagnostics.
func (k Kind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindUnregister:
		return "unregister"
	case KindUnicast:
		return "unicast"
	case KindMulticast:
		return "multicast"
	case KindLookup:
		return "lookup"
	case KindOK:
		return "ok"
	case KindBool:
		return "bool"
	case KindErr:
		return "err"
	}
	return fmt.Sprintf("kind(0x%02x)", byte(k))
}

// Error codes carried by KindErr frames: the wire form of the
// resilience layer's refusals plus the protocol's own failures.
const (
	CodeMalformed   byte = 1 // request did not parse; the connection is closed after sending
	CodeShed        byte = 2 // resilience.ErrShed — refused by admission control before any lock
	CodeBreakerOpen byte = 3 // resilience.ErrBreakerOpen — circuit breaker rejected the section
	CodeStall       byte = 4 // core.StallError — bounded acquisition gave up past the retry budget
	CodeBudget      byte = 5 // resilience.ErrBudgetExhausted — stalled and the retry budget was dry
	CodeInternal    byte = 6 // any other section failure
)

// CodeString names an error code.
func CodeString(c byte) string {
	switch c {
	case CodeMalformed:
		return "malformed"
	case CodeShed:
		return "shed"
	case CodeBreakerOpen:
		return "breaker-open"
	case CodeStall:
		return "stall"
	case CodeBudget:
		return "budget-exhausted"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("code(%d)", c)
}

// Size limits. MaxBody bounds a whole frame body (oversized length
// prefixes are rejected before any read); MaxName bounds group/member
// names (a name length byte can express nothing larger).
const (
	MaxBody = 1 << 20
	MaxName = 255

	// HeaderLen is the frame length prefix.
	HeaderLen = 4
)

// Errors returned by the decode paths. ErrFrameTooLarge and
// ErrMalformed close the connection (the stream cannot be resynced);
// io errors propagate as-is.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxBody")
	ErrMalformed     = errors.New("wire: malformed frame")
)

// Req is one parsed request. Group/A/Payload are subslices of the body
// passed to ParseReq — valid only until the caller reuses that buffer.
// A is the second name when the kind has one (member or dst).
type Req struct {
	Kind    Kind
	Group   []byte
	A       []byte
	Payload []byte
}

// Resp is one parsed response.
type Resp struct {
	Kind Kind
	Bool bool // KindBool value
	Code byte // KindErr code
}

// Reader decodes length-prefixed frames in place. It reads the stream
// into one buffer it owns and returns frame bodies that alias that
// buffer, so no frame is copied between the read and the parser.
//
// A body returned by Next or Buffered stays valid until the following
// call to Next, which may read and move bytes. Buffered never reads or
// moves anything, so a caller can take one frame with Next, drain the
// complete frames behind it with Buffered, and use all of their bodies
// together — the server's pipelined batch.
//
// The buffer starts at the size given to NewReader and grows to fit
// the largest frame seen; it never shrinks. A read error is sticky:
// frames already buffered are still returned, then every call reports
// the error.
type Reader struct {
	r    io.Reader
	buf  []byte
	head int // first unconsumed byte
	tail int // end of the bytes read so far
	max  int
	err  error
}

// NewReader returns a Reader over r with a size-byte buffer, accepting
// bodies of at most max bytes (MaxBody when max is ≤ 0 or larger).
func NewReader(r io.Reader, size, max int) *Reader {
	if max <= 0 || max > MaxBody {
		max = MaxBody
	}
	if size < HeaderLen {
		size = HeaderLen
	}
	return &Reader{r: r, buf: make([]byte, size), max: max}
}

// Buffered returns the next frame's body and consumes the frame if it
// is completely buffered. Otherwise — including when the next length
// prefix is over the cap, which the following Next reports — it
// returns false and consumes nothing.
func (fr *Reader) Buffered() ([]byte, bool) {
	avail := fr.tail - fr.head
	if avail < HeaderLen {
		return nil, false
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.head:])
	if n > uint32(fr.max) || uint32(avail-HeaderLen) < n {
		return nil, false
	}
	start := fr.head + HeaderLen
	fr.head = start + int(n)
	return fr.buf[start:fr.head:fr.head], true
}

// Next returns the next frame's body, reading until the whole frame is
// buffered. A length prefix over the cap returns ErrFrameTooLarge
// before the body is read; a stream that ends inside a frame returns
// io.ErrUnexpectedEOF, and one that ends between frames io.EOF.
func (fr *Reader) Next() ([]byte, error) {
	for {
		if body, ok := fr.Buffered(); ok {
			return body, nil
		}
		need := HeaderLen
		if fr.tail-fr.head >= HeaderLen {
			n := binary.BigEndian.Uint32(fr.buf[fr.head:])
			if n > uint32(fr.max) {
				return nil, ErrFrameTooLarge
			}
			need += int(n)
		}
		if fr.err != nil {
			if fr.err == io.EOF && fr.tail > fr.head {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, fr.err
		}
		fr.makeRoom(need)
		n, err := fr.r.Read(fr.buf[fr.tail:])
		fr.tail += n
		fr.err = err
	}
}

// makeRoom makes the buffer hold need bytes from head on, moving the
// unconsumed bytes to the front (into a larger buffer when need exceeds
// the current one). need is always more than is buffered, so there is
// free space behind tail afterwards.
func (fr *Reader) makeRoom(need int) {
	if fr.head == fr.tail {
		fr.head, fr.tail = 0, 0
	}
	if len(fr.buf)-fr.head >= need {
		return
	}
	buf := fr.buf
	if need > len(buf) {
		buf = make([]byte, max(need, 2*len(buf)))
	}
	fr.tail = copy(buf, fr.buf[fr.head:fr.tail])
	fr.head = 0
	fr.buf = buf
}

// AppendFrame appends the length prefix and body to dst.
func AppendFrame(dst, body []byte) []byte {
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// appendName appends one length-prefixed name. Callers must have
// validated the length (encode helpers do).
func appendName(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

// nameOK reports whether s fits the wire shape.
func nameOK(s string) bool { return len(s) >= 1 && len(s) <= MaxName }

// ErrBadName is returned by encode helpers handed an empty or oversized
// name.
var ErrBadName = errors.New("wire: name must be 1..255 bytes")

// AppendRegister appends a complete Register request frame to dst.
func AppendRegister(dst []byte, group, member string) ([]byte, error) {
	return appendPair(dst, KindRegister, group, member)
}

// AppendUnregister appends a complete Unregister request frame to dst.
func AppendUnregister(dst []byte, group, member string) ([]byte, error) {
	return appendPair(dst, KindUnregister, group, member)
}

// AppendLookup appends a complete Lookup request frame to dst.
func AppendLookup(dst []byte, group, member string) ([]byte, error) {
	return appendPair(dst, KindLookup, group, member)
}

func appendPair(dst []byte, k Kind, group, member string) ([]byte, error) {
	if !nameOK(group) || !nameOK(member) {
		return dst, ErrBadName
	}
	body := 1 + 1 + len(group) + 1 + len(member)
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(body))
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(k))
	dst = appendName(dst, group)
	return appendName(dst, member), nil
}

// AppendUnicast appends a complete Unicast request frame to dst.
func AppendUnicast(dst []byte, group, to string, payload []byte) ([]byte, error) {
	if !nameOK(group) || !nameOK(to) {
		return dst, ErrBadName
	}
	body := 1 + 1 + len(group) + 1 + len(to) + len(payload)
	if body > MaxBody {
		return dst, ErrFrameTooLarge
	}
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(body))
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(KindUnicast))
	dst = appendName(dst, group)
	dst = appendName(dst, to)
	return append(dst, payload...), nil
}

// AppendMulticast appends a complete Multicast request frame to dst.
func AppendMulticast(dst []byte, group string, payload []byte) ([]byte, error) {
	if !nameOK(group) {
		return dst, ErrBadName
	}
	body := 1 + 1 + len(group) + len(payload)
	if body > MaxBody {
		return dst, ErrFrameTooLarge
	}
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(body))
	dst = append(dst, hdr[:]...)
	dst = append(dst, byte(KindMulticast))
	dst = appendName(dst, group)
	return append(dst, payload...), nil
}

// AppendOK appends a complete OK response frame to dst.
func AppendOK(dst []byte) []byte {
	return append(dst, 0, 0, 0, 1, byte(KindOK))
}

// AppendBool appends a complete Bool response frame to dst.
func AppendBool(dst []byte, v bool) []byte {
	b := byte(0)
	if v {
		b = 1
	}
	return append(dst, 0, 0, 0, 2, byte(KindBool), b)
}

// AppendErr appends a complete Err response frame to dst.
func AppendErr(dst []byte, code byte) []byte {
	return append(dst, 0, 0, 0, 2, byte(KindErr), code)
}

// parseName consumes one length-prefixed name from b, returning the
// name and the remainder.
func parseName(b []byte) (name, rest []byte, err error) {
	if len(b) < 1 {
		return nil, nil, ErrMalformed
	}
	n := int(b[0])
	if n < 1 || len(b) < 1+n {
		return nil, nil, ErrMalformed
	}
	return b[1 : 1+n], b[1+n:], nil
}

// ParseReq decodes one request body. The returned slices alias body.
func ParseReq(body []byte) (Req, error) {
	var r Req
	if len(body) < 1 {
		return r, ErrMalformed
	}
	r.Kind = Kind(body[0])
	rest := body[1:]
	var err error
	switch r.Kind {
	case KindRegister, KindUnregister, KindLookup:
		if r.Group, rest, err = parseName(rest); err != nil {
			return Req{}, err
		}
		if r.A, rest, err = parseName(rest); err != nil {
			return Req{}, err
		}
		if len(rest) != 0 {
			// Fixed-shape requests admit no trailing bytes: garbage here
			// means the stream is out of sync.
			return Req{}, ErrMalformed
		}
	case KindUnicast:
		if r.Group, rest, err = parseName(rest); err != nil {
			return Req{}, err
		}
		if r.A, rest, err = parseName(rest); err != nil {
			return Req{}, err
		}
		r.Payload = rest
	case KindMulticast:
		if r.Group, rest, err = parseName(rest); err != nil {
			return Req{}, err
		}
		r.Payload = rest
	default:
		return Req{}, ErrMalformed
	}
	return r, nil
}

// ParseResp decodes one response body.
func ParseResp(body []byte) (Resp, error) {
	var r Resp
	if len(body) < 1 {
		return r, ErrMalformed
	}
	r.Kind = Kind(body[0])
	switch r.Kind {
	case KindOK:
		if len(body) != 1 {
			return Resp{}, ErrMalformed
		}
	case KindBool:
		if len(body) != 2 || body[1] > 1 {
			return Resp{}, ErrMalformed
		}
		r.Bool = body[1] == 1
	case KindErr:
		if len(body) != 2 {
			return Resp{}, ErrMalformed
		}
		r.Code = body[1]
	default:
		return Resp{}, ErrMalformed
	}
	return r, nil
}
