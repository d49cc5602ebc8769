// Package wire implements PlatoD2GL's binary RPC framing, the one protocol
// every cluster RPC speaks (remote sampling, feature pulls, batch ingest,
// replication, migration, anti-entropy, control plane).
//
// Motivation (the DistDGL/AliGraph observation that serialization dominates
// remote GNN sampling): a reflective codec such as gob re-encodes type
// metadata per stream, reflects over every struct, and boxes every slice
// element. The payloads here are flat numeric records — vertex ids, float32
// feature rows, event tuples — so a hand-rolled little-endian layout with
// varint counts and bulk slice copies is both far smaller and far cheaper
// to encode.
//
// # Stream layout
//
// A wire connection starts with an 8-byte client hello and an 8-byte server
// acceptance (see Hello/Ack). The hello states a version range and the
// server acks Version if the range holds it, or 0 otherwise: a build speaks
// exactly one version, so builds of different versions refuse each other.
// A server closes any connection whose hello does not start with Magic.
//
// After the handshake, each direction carries length-prefixed frames:
//
//	uint32 LE  payload length (≤ MaxFrame)
//	byte       frame kind (KindRequest / KindResponse / KindError)
//	...        kind-specific payload
//
// A request payload is `uvarint method-id` followed by the method's encoded
// args; a response is the encoded reply; an error is `byte error-kind |
// uvarint retry-after-millis | uvarint-length string`. One request is outstanding per connection at a time (the client
// pools connections instead of multiplexing), so frames need no sequence
// numbers.
//
// Encoding primitives are append-style (no intermediate allocations) and
// decoding is bounds-checked against the frame: a truncated, corrupt, or
// oversized frame yields an error, never a panic and never an attacker-
// sized allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// Version is the one protocol version this build speaks. Version 2 added
// the request envelope (KindRequestEnv) with the caller's remaining deadline
// budget and priority class for server-side admission control; version 3
// has one checksummed attribute export for whole stores and shards, so the
// cluster's method ids and that payload's layout differ from version 2;
// version 4's error frame carries an error kind and a retry-after hint
// ahead of the text.
const Version = 4

// Magic opens every hello and ack. A connection that does not start with
// it is not speaking this protocol and is refused during the handshake.
var Magic = [4]byte{0x00, 'D', '2', 'G'}

// Frame kinds.
const (
	KindRequest  = 0x01
	KindResponse = 0x02 // successful reply payload
	KindError    = 0x03 // the server refused the call: kind, retry-after, text
	// KindRequestEnv is a request with an admission envelope: `byte
	// priority | uvarint budget-millis | uvarint method-id | args`. priority
	// 0 means "use the method's default class"; budget 0 means "no deadline
	// propagated".
	KindRequestEnv = 0x04
)

// MaxFrame caps a single frame's payload. Snapshots of large shards are the
// biggest legitimate payloads; anything beyond this is a corrupt length
// prefix and the connection is dropped rather than allocated for.
const MaxFrame = 1 << 30

// helloSize is the fixed size of both handshake messages.
const helloSize = 8

// ErrFrameTooLarge rejects a frame whose length prefix exceeds MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrTruncated reports a decode that ran past the end of the frame.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrBadHandshake reports a malformed or version-incompatible handshake.
var ErrBadHandshake = errors.New("wire: bad handshake")

// Hello renders the client's 8-byte handshake: magic, the version range the
// client speaks, two reserved zero bytes.
func Hello(minVer, maxVer byte) [helloSize]byte {
	var h [helloSize]byte
	copy(h[:], Magic[:])
	h[4], h[5] = minVer, maxVer
	return h
}

// Ack renders the server's 8-byte acceptance: magic, the chosen version
// (0 = rejected), three reserved zero bytes.
func Ack(version byte) [helloSize]byte {
	var a [helloSize]byte
	copy(a[:], Magic[:])
	a[4] = version
	return a
}

// ParseHello validates a client hello and returns its version range.
func ParseHello(h [helloSize]byte) (minVer, maxVer byte, err error) {
	if [4]byte(h[:4]) != Magic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadHandshake)
	}
	if h[4] == 0 || h[4] > h[5] {
		return 0, 0, fmt.Errorf("%w: version range [%d,%d]", ErrBadHandshake, h[4], h[5])
	}
	return h[4], h[5], nil
}

// ParseAck validates a server acceptance and returns the chosen version.
// version 0 means the server rejected the client's version range.
func ParseAck(a [helloSize]byte) (version byte, err error) {
	if [4]byte(a[:4]) != Magic {
		return 0, fmt.Errorf("%w: bad magic in ack", ErrBadHandshake)
	}
	return a[4], nil
}

// Negotiate picks the version a server should answer a [minVer, maxVer]
// hello with: Version when the range holds it, or 0 (rejected) otherwise.
func Negotiate(minVer, maxVer byte) byte {
	if minVer <= Version && Version <= maxVer {
		return Version
	}
	return 0
}

// HeaderSize is the length of the prefix that opens every frame.
const HeaderSize = 4

// GetFrame returns a pooled buffer holding only a reserved length prefix.
// Append the frame-kind byte and the payload to it, send it with
// WriteFrame, and return it with PutBuf.
func GetFrame() []byte { return GetBuf(HeaderSize) }

// WriteFrame fills in the length prefix of frame, a GetFrame buffer with the
// frame-kind byte and payload appended, and sends it in a single Write, so
// a frame costs one syscall.
func WriteFrame(w io.Writer, frame []byte) error {
	if len(frame) < HeaderSize {
		return fmt.Errorf("wire: %d-byte frame has no length prefix", len(frame))
	}
	if len(frame)-HeaderSize > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-HeaderSize))
	_, err := w.Write(frame)
	return err
}

// frameChunk is the largest frame payload ReadFrame allocates up-front on
// the length prefix alone. Larger frames grow geometrically as bytes
// actually arrive, so a forged header claiming a near-MaxFrame length
// costs one chunk of memory, not the claimed gigabyte.
const frameChunk = 1 << 20

// ReadFrame reads one frame's payload into a buffer from GetBuf (return it
// with PutBuf). A length prefix beyond MaxFrame is rejected without
// allocating, and memory for a large frame is committed only as its bytes
// stream in.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if n <= frameChunk {
		buf := GetBuf(n)
		if _, err := io.ReadFull(r, buf); err != nil {
			PutBuf(buf)
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, frameChunk)
	filled := 0
	for {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			return nil, err
		}
		filled = len(buf)
		if filled == n {
			return buf, nil
		}
		grow := filled * 2
		if grow > n {
			grow = n
		}
		next := make([]byte, grow)
		copy(next, buf)
		buf = next
	}
}

// Buffer pool for frame scratch on both sides of every call. Buffers above
// maxPooledBuf are left to the GC so one snapshot transfer does not pin a
// gigabyte in the pool.
const maxPooledBuf = 1 << 20

// bufPool holds buffers, each in a *[]byte box since a pool stores
// pointers. GetBuf hands the emptied box to boxPool and PutBuf takes one
// back from there, so a steady Get/Put cycle allocates nothing.
var (
	bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	boxPool sync.Pool
)

// GetBuf returns a pooled buffer of length n.
func GetBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	b := *bp
	if cap(b) < n {
		bufPool.Put(bp)
		return make([]byte, n)
	}
	*bp = nil
	boxPool.Put(bp)
	return b[:n]
}

// PutBuf returns a buffer obtained from GetBuf (or grown from one).
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	bp, _ := boxPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = b[:0]
	bufPool.Put(bp)
}

// --- Append-style encoding primitives -----------------------------------

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v zigzag-encoded.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendUint32 appends v as 4 fixed little-endian bytes.
func AppendUint32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendUint64 appends v as 8 fixed little-endian bytes.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendFloat64 appends v's IEEE bits as 8 fixed bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBool appends one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a uvarint length followed by the bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length followed by the bytes.
func AppendBytes(b []byte, v []byte) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendUint64s appends a uvarint count followed by fixed 8-byte elements —
// the bulk layout for vertex-id and checksum slices.
func AppendUint64s(b []byte, v []uint64) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// AppendFloat32s appends a uvarint count followed by fixed 4-byte elements —
// the bulk layout for feature matrices.
func AppendFloat32s(b []byte, v []float32) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	n := len(b)
	b = slices.Grow(b, 4*len(v))[:n+4*len(v)]
	PutFloat32s(b[n:], v)
	return b
}

// AppendInt32s appends a uvarint count followed by fixed 4-byte elements.
func AppendInt32s(b []byte, v []int32) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	n := len(b)
	b = slices.Grow(b, 4*len(v))[:n+4*len(v)]
	putInt32s(b[n:], v)
	return b
}

// hostLittleEndian reports whether this host stores a uint32 least
// significant byte first, the wire's byte order. On such a host a float32
// or int32 slice is already its own encoding, so the bulk codecs below are
// one memory copy; elsewhere they fall back to the per-element loop.
var hostLittleEndian = func() bool {
	x := uint32(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bytesOf views the memory of a 4-byte-element slice as bytes.
func bytesOf[T float32 | int32](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// PutFloat32s writes v into b as fixed 4-byte little-endian elements, with
// no count. b must hold at least 4*len(v) bytes.
func PutFloat32s(b []byte, v []float32) {
	if hostLittleEndian {
		copy(b[:4*len(v)], bytesOf(v))
		return
	}
	putFloat32sLoop(b, v)
}

// putInt32s is PutFloat32s for int32s.
func putInt32s(b []byte, v []int32) {
	if hostLittleEndian {
		copy(b[:4*len(v)], bytesOf(v))
		return
	}
	putInt32sLoop(b, v)
}

// DecodeFloat32s fills dst from b, fixed 4-byte little-endian elements
// with no count (a block from Reader.Block32). b must hold at least
// 4*len(dst) bytes.
func DecodeFloat32s(dst []float32, b []byte) {
	if hostLittleEndian {
		copy(bytesOf(dst), b[:4*len(dst)])
		return
	}
	decodeFloat32sLoop(dst, b)
}

// decodeInt32s is DecodeFloat32s for int32s.
func decodeInt32s(dst []int32, b []byte) {
	if hostLittleEndian {
		copy(bytesOf(dst), b[:4*len(dst)])
		return
	}
	decodeInt32sLoop(dst, b)
}

// The per-element loops: the codec of a big-endian host, and the oracle
// the bulk copies are tested against.

func putFloat32sLoop(b []byte, v []float32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

func putInt32sLoop(b []byte, v []int32) {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
}

func decodeFloat32sLoop(dst []float32, b []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

func decodeInt32sLoop(dst []int32, b []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// AppendBools appends a uvarint count followed by one byte per element.
func AppendBools(b []byte, v []bool) []byte {
	b = AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = AppendBool(b, x)
	}
	return b
}

// --- Bounds-checked decoding --------------------------------------------

// Reader decodes one frame. Errors are sticky: after the first failure
// every read returns zero values and Err reports the failure, so decoders
// can run straight-line without per-field checks. All slice reads validate
// the element count against the bytes actually remaining, so a corrupt
// count cannot force a huge allocation.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader decodes from b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
	r.off = len(r.b)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte as a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned LEB128 value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded value.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads 4 fixed little-endian bytes.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// Uint64 reads 8 fixed little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Float64 reads 8 fixed bytes as IEEE float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Invalidate poisons the decode with ErrTruncated — for callers that
// discover domain-level corruption (an impossible count, an out-of-range
// id) mid-decode.
func (r *Reader) Invalidate() { r.fail() }

// Count reads a uvarint element count and validates count*minElemSize
// against the remaining bytes, failing the decode (instead of allocating)
// when the frame cannot possibly hold that many elements.
func (r *Reader) Count(minElemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Remaining()/minElemSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// String reads a uvarint-length-prefixed string (copied out of the frame).
func (r *Reader) String() string {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// Bytes reads a uvarint-length-prefixed byte slice, copied out of the frame
// so the frame buffer can return to its pool.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	copy(v, r.b[r.off:])
	r.off += n
	return v
}

// Uint64s reads a count-prefixed bulk slice of fixed 8-byte elements.
func (r *Reader) Uint64s() []uint64 {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return v
}

// Block32 reads the count prefix of a bulk slice of fixed 4-byte elements
// (the layout of AppendFloat32s and AppendInt32s) and returns the element
// count and the still-encoded elements, a view into the frame: decode them
// with DecodeFloat32s straight into their destination.
func (r *Reader) Block32() (n int, raw []byte) {
	n = r.Count(4)
	if r.err != nil || n == 0 {
		return 0, nil
	}
	raw = r.b[r.off : r.off+4*n]
	r.off += 4 * n
	return n, raw
}

// Float32s reads a count-prefixed bulk slice of fixed 4-byte elements.
func (r *Reader) Float32s() []float32 {
	n, raw := r.Block32()
	if n == 0 {
		return nil
	}
	v := make([]float32, n)
	DecodeFloat32s(v, raw)
	return v
}

// Int32s reads a count-prefixed bulk slice of fixed 4-byte elements.
func (r *Reader) Int32s() []int32 {
	n, raw := r.Block32()
	if n == 0 {
		return nil
	}
	v := make([]int32, n)
	decodeInt32s(v, raw)
	return v
}

// Bools reads a count-prefixed slice of one-byte booleans.
func (r *Reader) Bools() []bool {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]bool, n)
	for i := range v {
		v[i] = r.b[r.off] != 0
		r.off++
	}
	return v
}

// Done reports the first decode error, or an error if the frame holds
// trailing bytes the decoder did not consume (a framing bug or corruption,
// either way not a frame to trust).
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after decode", len(r.b)-r.off)
	}
	return nil
}
