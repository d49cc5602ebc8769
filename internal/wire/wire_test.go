package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestHandshakeRoundTrip(t *testing.T) {
	h := Hello(1, Version)
	minV, maxV, err := ParseHello(h)
	if err != nil {
		t.Fatalf("ParseHello: %v", err)
	}
	if minV != 1 || maxV != Version {
		t.Fatalf("ParseHello = [%d,%d], want [1,%d]", minV, maxV, Version)
	}
	a := Ack(Version)
	ver, err := ParseAck(a)
	if err != nil {
		t.Fatalf("ParseAck: %v", err)
	}
	if ver != Version {
		t.Fatalf("ParseAck = %d, want %d", ver, Version)
	}
}

func TestParseHelloRejects(t *testing.T) {
	var zero [8]byte
	if _, _, err := ParseHello(zero); err == nil {
		t.Fatal("ParseHello accepted all-zero hello")
	}
	// Gob streams start with a nonzero uvarint length: never the magic.
	gobby := [8]byte{0x1a, 0xff, 0x81, 0x03, 1, 1, 0, 0}
	if _, _, err := ParseHello(gobby); err == nil {
		t.Fatal("ParseHello accepted gob-looking bytes")
	}
	bad := Hello(0, 0) // min version 0 is invalid
	if _, _, err := ParseHello(bad); err == nil {
		t.Fatal("ParseHello accepted version range [0,0]")
	}
	inverted := Hello(2, 1)
	if _, _, err := ParseHello(inverted); err == nil {
		t.Fatal("ParseHello accepted inverted version range")
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		min, max, want byte
	}{
		{1, Version, Version},         // range ending at ours
		{1, Version + 5, Version},     // range spanning ours
		{Version, Version, Version},   // exactly ours: what every client sends
		{Version + 1, Version + 5, 0}, // newer-only client: reject
		{Version + 1, Version + 1, 0}, // next version's client: reject
		{1, 1, 0},                     // v1-only client: reject
	}
	for _, c := range cases {
		if got := Negotiate(c.min, c.max); got != c.want {
			t.Errorf("Negotiate(%d,%d) = %d, want %d", c.min, c.max, got, c.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{KindRequest, 1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, frameOf(payload)); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip = %v, want %v", got, payload)
	}
	PutBuf(got)
}

// frameOf builds a frame around payload the way senders do: appended to a
// GetFrame buffer.
func frameOf(payload []byte) []byte { return append(GetFrame(), payload...) }

// countingWriter counts the Write calls made on it.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameSingleWrite: WriteFrame hands a frame, length prefix and
// payload, to the writer in one Write call, and ReadFrame reads back
// exactly the payload.
func TestWriteFrameSingleWrite(t *testing.T) {
	var w countingWriter
	payloads := [][]byte{{KindResponse}, {KindRequest, 7, 8, 9}, append([]byte{KindResponse}, make([]byte, 5000)...)}
	for i, payload := range payloads {
		frame := frameOf(payload)
		if err := WriteFrame(&w, frame); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		PutBuf(frame)
		if w.writes != i+1 {
			t.Fatalf("%d Write calls after %d frames", w.writes, i+1)
		}
	}
	for _, payload := range payloads {
		got, err := ReadFrame(&w.Buffer)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("frame round trip = %d bytes, want %d", len(got), len(payload))
		}
		PutBuf(got)
	}
	if err := WriteFrame(&w, []byte{0, 0, 0}); err == nil || w.writes != len(payloads) {
		t.Fatalf("WriteFrame of a buffer shorter than the prefix = %v after %d writes", err, w.writes)
	}
}

// BenchmarkWriteFrame builds a 4 KiB response frame in a pooled buffer and
// writes it.
func BenchmarkWriteFrame(b *testing.B) {
	payload := make([]byte, 4096)
	b.SetBytes(int64(HeaderSize + 1 + len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame := append(GetFrame(), KindResponse)
		frame = append(frame, payload...)
		if err := WriteFrame(io.Discard, frame); err != nil {
			b.Fatal(err)
		}
		PutBuf(frame)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// A corrupt length prefix far beyond MaxFrame must be rejected before
	// any allocation happens.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame(4GiB prefix) = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, frameOf([]byte{KindResponse, 9, 9, 9})); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("ReadFrame accepted truncated frame")
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{4, 0})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame(truncated header) = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadFrameLargeRoundTrip(t *testing.T) {
	// A frame bigger than frameChunk exercises the incremental-growth read
	// path and must still round-trip byte-exact.
	payload := make([]byte, 3*frameChunk+17)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	payload[0] = KindResponse
	var buf bytes.Buffer
	if err := WriteFrame(&buf, frameOf(payload)); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("large frame round trip mismatch: %d vs %d bytes", len(got), len(payload))
	}
}

func TestReadFrameForgedLengthBounded(t *testing.T) {
	// A header claiming a near-MaxFrame payload followed by almost no data
	// must fail on the missing bytes without committing the claimed memory:
	// the read path may only allocate for bytes that actually arrived (one
	// chunk here), not the advertised gigabyte.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame)
	stream := append(hdr[:], make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadFrame(forged length) = %v, want ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*frameChunk {
		t.Fatalf("forged 1GiB length prefix allocated %d bytes; want ≤ %d", grew, 8*frameChunk)
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1234567)
	b = AppendVarint(b, math.MinInt64)
	b = AppendUint32(b, 0xdeadbeef)
	b = AppendUint64(b, 0x0123456789abcdef)
	b = AppendFloat64(b, -math.Pi)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "héllo wire")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendUint64s(b, []uint64{7, 8, 9})
	b = AppendFloat32s(b, []float32{1.5, -2.25})
	b = AppendInt32s(b, []int32{-3, 4})
	b = AppendBools(b, []bool{true, false, true})

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -1234567 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Uint32(); v != 0xdeadbeef {
		t.Fatalf("Uint32 = %x", v)
	}
	if v := r.Uint64(); v != 0x0123456789abcdef {
		t.Fatalf("Uint64 = %x", v)
	}
	if v := r.Float64(); v != -math.Pi {
		t.Fatalf("Float64 = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if v := r.String(); v != "héllo wire" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{0, 1, 2}) {
		t.Fatalf("Bytes = %v", v)
	}
	if v := r.Uint64s(); !reflect.DeepEqual(v, []uint64{7, 8, 9}) {
		t.Fatalf("Uint64s = %v", v)
	}
	if v := r.Float32s(); !reflect.DeepEqual(v, []float32{1.5, -2.25}) {
		t.Fatalf("Float32s = %v", v)
	}
	if v := r.Int32s(); !reflect.DeepEqual(v, []int32{-3, 4}) {
		t.Fatalf("Int32s = %v", v)
	}
	if v := r.Bools(); !reflect.DeepEqual(v, []bool{true, false, true}) {
		t.Fatalf("Bools = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	r.Uint64() // truncated: fails
	if r.Err() == nil {
		t.Fatal("expected sticky error after truncated Uint64")
	}
	// Every later read must return zero values, not panic or advance.
	if r.Byte() != 0 || r.Uvarint() != 0 || r.String() != "" || r.Bytes() != nil {
		t.Fatal("reads after sticky error returned nonzero values")
	}
	if r.Done() == nil {
		t.Fatal("Done must report the sticky error")
	}
}

func TestReaderCountRejectsHugeCounts(t *testing.T) {
	// A frame claiming 2^40 uint64s in 9 bytes must fail, not allocate 8TiB.
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(b)
	if v := r.Uint64s(); v != nil {
		t.Fatalf("Uint64s on corrupt count = %v", v)
	}
	if r.Err() == nil {
		t.Fatal("corrupt count must poison the reader")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.Done(); err == nil {
		t.Fatal("Done must reject trailing bytes")
	}
}

func TestReaderInvalidate(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Invalidate()
	if r.Err() == nil || r.Done() == nil {
		t.Fatal("Invalidate must poison the reader")
	}
	if r.Byte() != 0 {
		t.Fatal("read after Invalidate returned data")
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf(100)
	if len(b) != 100 {
		t.Fatalf("GetBuf(100) len = %d", len(b))
	}
	PutBuf(b)
	big := GetBuf(maxPooledBuf + 1)
	if len(big) != maxPooledBuf+1 {
		t.Fatalf("GetBuf(big) len = %d", len(big))
	}
	PutBuf(big) // must not retain; just exercises the cap check
}

// FuzzReader drives the decoding primitives over arbitrary frames: no input
// may panic or allocate beyond the frame's own size, and Done must be
// reachable on every path.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(AppendString(AppendUvarint(nil, 3), "abc"))
	f.Add(AppendUint64s(nil, []uint64{1, 2, 3}))
	f.Add(AppendUvarint(nil, 1<<40)) // huge count
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		// A representative mix of reads; sticky errors make order safe.
		r.Byte()
		r.Uvarint()
		r.Varint()
		r.Uint32()
		r.Uint64()
		_ = r.String()
		r.Bytes()
		r.Uint64s()
		r.Float32s()
		r.Int32s()
		r.Bools()
		_ = r.Done()
	})
}

// FuzzFrame round-trips arbitrary payloads through Write/ReadFrame and
// feeds arbitrary bytes to ReadFrame directly.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{KindRequest, 1, 2, 3})
	// Envelope request: priority 1, budget 250ms, method 3, two arg bytes.
	env := []byte{KindRequestEnv, 1}
	env = AppendUvarint(env, 250)
	env = AppendUvarint(env, 3)
	f.Add(append(env, 0xaa, 0xbb))
	f.Add([]byte{KindRequestEnv})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpretation 1: data is a payload. Must round-trip exactly.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, frameOf(data)); err == nil {
			got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("ReadFrame after WriteFrame: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("frame round trip mismatch: %d vs %d bytes", len(got), len(data))
			}
			PutBuf(got)
		}
		// Interpretation 2: data is a raw stream. Must error or yield a
		// frame, never panic or over-allocate.
		if got, err := ReadFrame(bytes.NewReader(data)); err == nil {
			PutBuf(got)
		}
	})
}

// TestBulkCodecMatchesLoop: the bulk copies give the per-element loop's
// bytes and values bit for bit, at every length and at odd offsets into the
// frame, for NaN payloads, signed zeros, infinities and subnormals.
func TestBulkCodecMatchesLoop(t *testing.T) {
	if hostLittleEndian != (binary.NativeEndian.Uint16([]byte{1, 0}) == 1) {
		t.Fatalf("hostLittleEndian = %v disagrees with binary.NativeEndian", hostLittleEndian)
	}
	special := []uint32{
		0x7fc00000, 0x7fc00001, 0xffbfffff, 0x7f800001, // quiet and signalling NaNs with payloads
		0x80000000, 0x00000000, 0x7f800000, 0xff800000, // -0, +0, ±Inf
		0x00000001, 0x807fffff, 0x3f800000, 0xc2f6e979, // subnormals, 1, -123.456
	}
	rng := uint32(12345)
	next := func() uint32 { rng = rng*1664525 + 1013904223; return rng }
	for _, n := range []int{0, 1, 2, 3, 7, 12, 64, 1001} {
		fv := make([]float32, n)
		iv := make([]int32, n)
		for i := range fv {
			bits := next()
			if i < len(special) {
				bits = special[i]
			}
			fv[i] = math.Float32frombits(bits)
			iv[i] = int32(next())
		}
		for _, pre := range []int{0, 1, 3} {
			prefix := bytes.Repeat([]byte{0xa5}, pre)
			want := append([]byte(nil), prefix...)
			want = AppendUvarint(want, uint64(n))
			loop := make([]byte, 4*n)
			putFloat32sLoop(loop, fv)
			if got := AppendFloat32s(append([]byte(nil), prefix...), fv); !bytes.Equal(got, append(want, loop...)) {
				t.Fatalf("n=%d pre=%d: AppendFloat32s differs from the loop", n, pre)
			}
			putInt32sLoop(loop, iv)
			if got := AppendInt32s(append([]byte(nil), prefix...), iv); !bytes.Equal(got, append(want, loop...)) {
				t.Fatalf("n=%d pre=%d: AppendInt32s differs from the loop", n, pre)
			}
		}
		// Decode from an odd offset, so the block is unaligned.
		raw := make([]byte, 1+4*n)[1:]
		putFloat32sLoop(raw, fv)
		gotF, loopF := make([]float32, n), make([]float32, n)
		DecodeFloat32s(gotF, raw)
		decodeFloat32sLoop(loopF, raw)
		for i := range fv {
			if b := math.Float32bits(fv[i]); math.Float32bits(gotF[i]) != b || math.Float32bits(loopF[i]) != b {
				t.Fatalf("n=%d: float %d decodes to %08x (bulk) and %08x (loop), want %08x",
					n, i, math.Float32bits(gotF[i]), math.Float32bits(loopF[i]), b)
			}
		}
		putInt32sLoop(raw, iv)
		gotI, loopI := make([]int32, n), make([]int32, n)
		decodeInt32s(gotI, raw)
		decodeInt32sLoop(loopI, raw)
		if !reflect.DeepEqual(gotI, iv) || !reflect.DeepEqual(loopI, iv) {
			t.Fatalf("n=%d: int32 decode differs", n)
		}
		// The count-prefixed readers round-trip through the same blocks.
		r := NewReader(AppendInt32s(AppendFloat32s(nil, fv), iv))
		rf, ri := r.Float32s(), r.Int32s()
		if err := r.Done(); err != nil || len(rf) != n || (n > 0 && !reflect.DeepEqual(ri, iv)) {
			t.Fatalf("n=%d: reader round trip: %v", n, err)
		}
		for i := range rf {
			if math.Float32bits(rf[i]) != math.Float32bits(fv[i]) {
				t.Fatalf("n=%d: Float32s element %d changed bits", n, i)
			}
		}
	}
}

// TestBlock32: Block32 returns the encoded elements without copying them
// out of the frame, and fails on a count the frame cannot hold.
func TestBlock32(t *testing.T) {
	frame := AppendFloat32s(nil, []float32{1, 2, 3})
	r := NewReader(frame)
	n, raw := r.Block32()
	if err := r.Done(); err != nil || n != 3 || len(raw) != 12 || &raw[0] != &frame[1] {
		t.Fatalf("Block32 = %d, %d bytes, %v", n, len(raw), err)
	}
	r = NewReader(frame[:len(frame)-1])
	if n, raw := r.Block32(); n != 0 || raw != nil || r.Err() == nil {
		t.Fatalf("Block32 of a short block = %d, %d bytes, %v", n, len(raw), r.Err())
	}
}

// TestWriteFrameAllocs pins BenchmarkWriteFrame's body at zero
// allocations: the frame comes from the pool, and PutBuf reuses the box
// GetBuf emptied.
func TestWriteFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	payload := make([]byte, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		frame := append(GetFrame(), KindResponse)
		frame = append(frame, payload...)
		if err := WriteFrame(io.Discard, frame); err != nil {
			t.Fatal(err)
		}
		PutBuf(frame)
	})
	if allocs > 0 {
		t.Fatalf("GetFrame + WriteFrame + PutBuf allocates %.2f times, want 0", allocs)
	}
}
