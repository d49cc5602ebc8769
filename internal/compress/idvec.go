// Package compress implements the CP-IDs dynamic prefix compression of
// Sec. VI-A of the PlatoD2GL paper.
//
// Vertex IDs inside one samtree node tend to share high-order bytes (IDs are
// allocated densely per vertex type). Instead of storing each ID as 8 bytes,
// a node stores, per Eq. (7),
//
//	z | prefix | suf(v_0) | suf(v_1) | ... | suf(v_n)
//
// where z is the number of shared leading bytes, prefix those z bytes, and
// suf(v) the remaining 8-z bytes of each ID. z is chosen from {0, 4, 6, 7}
// for fast (byte-aligned, word-friendly) compression. When an inserted ID
// does not share the current prefix, the vector demotes itself to the widest
// prefix that still covers every element (Appendix A).
package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unsafe"

	"platod2gl/internal/prefetch"
)

// AllowedZ lists the prefix lengths (bytes) the paper permits, in descending
// preference order.
var AllowedZ = [...]uint8{7, 6, 4, 0}

// IDVec is a compact vector of uint64 IDs sharing a z-byte prefix. The
// element order is preserved; like a plain slice it supports positional get,
// set, swap-remove and append. The zero value is an empty vector with z=7
// (maximal compression until proven otherwise).
//
// IDVec is not safe for concurrent mutation.
type IDVec struct {
	z      uint8 // shared prefix length in bytes (0, 4, 6 or 7)
	inited bool
	// noCompress pins z to 0 permanently (the "w/o CP" ablation).
	noCompress bool
	prefix     uint64
	suffixes   []byte // n * (8-z) big-endian suffixes
	n          int
}

// suffixBytes returns the per-element suffix width for prefix length z.
func suffixBytes(z uint8) int { return 8 - int(z) }

// splitID returns the z-byte prefix (right-aligned) and the (8-z)-byte suffix
// of v.
func splitID(v uint64, z uint8) (prefix, suffix uint64) {
	if z == 0 {
		return 0, v
	}
	shift := uint(8 * (8 - z))
	return v >> shift, v & ((1 << shift) - 1)
}

// joinID reassembles an ID from prefix and suffix under prefix length z.
func joinID(prefix, suffix uint64, z uint8) uint64 {
	if z == 0 {
		return suffix
	}
	return prefix<<(8*(8-uint(z))) | suffix
}

// fitZ returns the largest allowed z such that every ID in ids shares the
// same z-byte prefix as ref.
func fitZ(ref uint64, ids []uint64) uint8 {
	for _, z := range AllowedZ {
		if z == 0 {
			return 0
		}
		p, _ := splitID(ref, z)
		ok := true
		for _, v := range ids {
			if q, _ := splitID(v, z); q != p {
				ok = false
				break
			}
		}
		if ok {
			return z
		}
	}
	return 0
}

// NewIDVec builds a compressed vector from ids, choosing the widest prefix
// that covers all of them.
func NewIDVec(ids []uint64) *IDVec {
	v := MakeIDVec(ids)
	return &v
}

// MakeIDVec is NewIDVec returning the vector by value, for a struct that
// holds its IDVec in place.
func MakeIDVec(ids []uint64) IDVec {
	var v IDVec
	if len(ids) == 0 {
		return v
	}
	z := fitZ(ids[0], ids)
	v.z = z
	v.prefix, _ = splitID(ids[0], z)
	v.inited = true
	sb := suffixBytes(z)
	v.suffixes = make([]byte, 0, len(ids)*sb)
	for _, id := range ids {
		_, suf := splitID(id, z)
		v.suffixes = appendSuffix(v.suffixes, suf, sb)
	}
	v.n = len(ids)
	return v
}

// NewUncompressed builds a vector that always stores full 8-byte IDs — the
// "w/o CP" ablation configuration.
func NewUncompressed(ids []uint64) *IDVec {
	v := MakeUncompressed(ids)
	return &v
}

// MakeUncompressed is NewUncompressed returning the vector by value.
func MakeUncompressed(ids []uint64) IDVec {
	v := IDVec{inited: true, z: 0, noCompress: true}
	sb := 8
	v.suffixes = make([]byte, 0, len(ids)*sb)
	for _, id := range ids {
		v.suffixes = appendSuffix(v.suffixes, id, sb)
	}
	v.n = len(ids)
	return v
}

// appendSuffix encodes one big-endian suffix. The paper restricts z to
// {0, 4, 6, 7} "for fast compression": the resulting suffix widths are
// exactly the machine word sizes {8, 4, 2, 1}, so every codec path is a
// single fixed-width store.
func appendSuffix(dst []byte, suf uint64, sb int) []byte {
	switch sb {
	case 1:
		return append(dst, byte(suf))
	case 2:
		return binary.BigEndian.AppendUint16(dst, uint16(suf))
	case 4:
		return binary.BigEndian.AppendUint32(dst, uint32(suf))
	default:
		return binary.BigEndian.AppendUint64(dst, suf)
	}
}

func (v *IDVec) readSuffix(i int) uint64 {
	sb := suffixBytes(v.z)
	off := i * sb
	switch sb {
	case 1:
		return uint64(v.suffixes[off])
	case 2:
		return uint64(binary.BigEndian.Uint16(v.suffixes[off:]))
	case 4:
		return uint64(binary.BigEndian.Uint32(v.suffixes[off:]))
	default:
		return binary.BigEndian.Uint64(v.suffixes[off:])
	}
}

func (v *IDVec) writeSuffix(i int, suf uint64) {
	sb := suffixBytes(v.z)
	off := i * sb
	switch sb {
	case 1:
		v.suffixes[off] = byte(suf)
	case 2:
		binary.BigEndian.PutUint16(v.suffixes[off:], uint16(suf))
	case 4:
		binary.BigEndian.PutUint32(v.suffixes[off:], uint32(suf))
	default:
		binary.BigEndian.PutUint64(v.suffixes[off:], suf)
	}
}

// Len returns the number of IDs.
func (v *IDVec) Len() int { return v.n }

// Z returns the current shared prefix length in bytes.
func (v *IDVec) Z() uint8 { return v.z }

// Get returns the ID at index i.
func (v *IDVec) Get(i int) uint64 {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("compress: Get index %d out of range [0,%d)", i, v.n))
	}
	return joinID(v.prefix, v.readSuffix(i), v.z)
}

// GetMany writes the ID at index idx[i] to out[i] for every i, decoding the
// whole batch under one suffix-width dispatch. Every idx[i] must lie in
// [0, Len()).
func (v *IDVec) GetMany(idx []int, out []uint64) {
	out = out[:len(idx)]
	hi := joinID(v.prefix, 0, v.z)
	s := v.suffixes
	switch suffixBytes(v.z) {
	case 1:
		for i, j := range idx {
			out[i] = hi | uint64(s[j])
		}
	case 2:
		for i, j := range idx {
			out[i] = hi | uint64(binary.BigEndian.Uint16(s[2*j:]))
		}
	case 4:
		for i, j := range idx {
			out[i] = hi | uint64(binary.BigEndian.Uint32(s[4*j:]))
		}
	default:
		for i, j := range idx {
			out[i] = hi | binary.BigEndian.Uint64(s[8*j:])
		}
	}
}

// Append adds id at the end. If id does not share the current prefix the
// vector demotes to a narrower prefix first (the Appendix-A update rule).
func (v *IDVec) Append(id uint64) {
	if !v.inited {
		v.inited = true
		if !v.noCompress {
			v.z = 7
		}
		v.prefix, _ = splitID(id, v.z)
	}
	p, suf := splitID(id, v.z)
	if v.n > 0 && p != v.prefix {
		v.demoteFor(id)
		_, suf = splitID(id, v.z)
	} else if v.n == 0 {
		if !v.noCompress {
			v.z = 7
		}
		v.prefix, _ = splitID(id, v.z)
		_, suf = splitID(id, v.z)
	}
	v.suffixes = appendSuffix(v.suffixes, suf, suffixBytes(v.z))
	v.n++
}

// Set overwrites the ID at index i, demoting the prefix if necessary.
func (v *IDVec) Set(i int, id uint64) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("compress: Set index %d out of range [0,%d)", i, v.n))
	}
	p, suf := splitID(id, v.z)
	if p != v.prefix {
		v.demoteFor(id)
		_, suf = splitID(id, v.z)
	}
	v.writeSuffix(i, suf)
}

// demoteFor re-encodes the vector with the widest allowed prefix that covers
// both the existing elements and id. Existing elements all share v.prefix,
// so checking one reconstructed element suffices.
func (v *IDVec) demoteFor(id uint64) {
	ids := v.All()
	ids = append(ids, id)
	z := fitZ(id, ids)
	ids = ids[:len(ids)-1]
	sb := suffixBytes(z)
	newSuf := make([]byte, 0, (len(ids)+1)*sb)
	for _, e := range ids {
		_, s := splitID(e, z)
		newSuf = appendSuffix(newSuf, s, sb)
	}
	v.z = z
	v.prefix, _ = splitID(id, z)
	v.suffixes = newSuf
}

// Swap exchanges the IDs at i and j.
func (v *IDVec) Swap(i, j int) {
	if i == j {
		return
	}
	a, b := v.readSuffix(i), v.readSuffix(j)
	v.writeSuffix(i, b)
	v.writeSuffix(j, a)
}

// InsertAt inserts id at position i, shifting later elements right. Demotes
// the prefix first if id does not share it. Used by ordered (internal-node)
// ID lists.
func (v *IDVec) InsertAt(i int, id uint64) {
	if i < 0 || i > v.n {
		panic(fmt.Sprintf("compress: InsertAt index %d out of range [0,%d]", i, v.n))
	}
	if !v.inited {
		v.inited = true
		if !v.noCompress {
			v.z = 7
		}
		v.prefix, _ = splitID(id, v.z)
	}
	p, suf := splitID(id, v.z)
	if v.n > 0 && p != v.prefix {
		v.demoteFor(id)
		_, suf = splitID(id, v.z)
	} else if v.n == 0 {
		if !v.noCompress {
			v.z = 7
		}
		v.prefix, _ = splitID(id, v.z)
		_, suf = splitID(id, v.z)
	}
	sb := suffixBytes(v.z)
	v.suffixes = append(v.suffixes, make([]byte, sb)...)
	copy(v.suffixes[(i+1)*sb:], v.suffixes[i*sb:])
	v.n++
	v.writeSuffix(i, suf)
}

// RemoveAt removes the ID at position i, shifting later elements left.
func (v *IDVec) RemoveAt(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("compress: RemoveAt index %d out of range [0,%d)", i, v.n))
	}
	sb := suffixBytes(v.z)
	copy(v.suffixes[i*sb:], v.suffixes[(i+1)*sb:])
	v.suffixes = v.suffixes[:len(v.suffixes)-sb]
	v.n--
}

// RemoveLast drops the final ID (used with swap-delete).
func (v *IDVec) RemoveLast() {
	if v.n == 0 {
		panic("compress: RemoveLast on empty vector")
	}
	sb := suffixBytes(v.z)
	v.suffixes = v.suffixes[:len(v.suffixes)-sb]
	v.n--
}

// All decodes every ID into a fresh slice.
func (v *IDVec) All() []uint64 {
	out := make([]uint64, v.n)
	for i := range out {
		out[i] = joinID(v.prefix, v.readSuffix(i), v.z)
	}
	return out
}

// Prefetch starts loading the first cache line of the suffix array, where
// IndexOf's scan begins.
func (v *IDVec) Prefetch() {
	if len(v.suffixes) > 0 {
		prefetch.Line(unsafe.Pointer(&v.suffixes[0]))
	}
}

// IndexOf returns the position of id, or -1. Linear scan — leaf ID lists are
// unordered by design (samtree constraint 2).
func (v *IDVec) IndexOf(id uint64) int {
	p, suf := splitID(id, v.z)
	if v.n > 0 && p != v.prefix {
		return -1
	}
	s := v.suffixes
	switch suffixBytes(v.z) {
	case 1:
		return bytes.IndexByte(s, byte(suf))
	case 2:
		t := uint16(suf)
		for i, off := 0, 0; i < v.n; i, off = i+1, off+2 {
			if binary.BigEndian.Uint16(s[off:]) == t {
				return i
			}
		}
	case 4:
		t := uint32(suf)
		for i, off := 0, 0; i < v.n; i, off = i+1, off+4 {
			if binary.BigEndian.Uint32(s[off:]) == t {
				return i
			}
		}
	default:
		for i, off := 0, 0; i < v.n; i, off = i+1, off+8 {
			if binary.BigEndian.Uint64(s[off:]) == suf {
				return i
			}
		}
	}
	return -1
}

// Recompress re-selects the widest prefix covering the current elements
// (used after splits, when a node's ID range narrows).
func (v *IDVec) Recompress() {
	if v.noCompress {
		return
	}
	if v.n == 0 {
		v.z = 7
		v.suffixes = v.suffixes[:0]
		return
	}
	ids := v.All()
	z := fitZ(ids[0], ids)
	if z == v.z {
		return
	}
	sb := suffixBytes(z)
	newSuf := make([]byte, 0, len(ids)*sb)
	for _, e := range ids {
		_, s := splitID(e, z)
		newSuf = appendSuffix(newSuf, s, sb)
	}
	v.z = z
	v.prefix, _ = splitID(ids[0], z)
	v.suffixes = newSuf
}

// MemoryBytes returns the structural footprint: the z byte, the prefix, and
// the suffix array (Eq. 7's string layout plus the Go slice header).
func (v *IDVec) MemoryBytes() int64 {
	return int64(24 /* slice header */ + 1 /* z */ + int(v.z) /* prefix bytes */ + cap(v.suffixes))
}
