package compress

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPaperFigure7(t *testing.T) {
	// Figure 7: IDs 16, 129, 43, 90 share the first 7 bytes (all zero),
	// suffixes 0x10, 0x81, 0x2b, 0x5a.
	ids := []uint64{0x10, 0x81, 0x2b, 0x5a}
	v := NewIDVec(ids)
	if v.Z() != 7 {
		t.Fatalf("Z = %d, want 7", v.Z())
	}
	for i, want := range ids {
		if got := v.Get(i); got != want {
			t.Fatalf("Get(%d) = %#x, want %#x", i, got, want)
		}
	}
	// 24 (header) + 1 (z) + 7 (prefix) + 4 suffix bytes.
	if got := v.MemoryBytes(); got != 24+1+7+4 {
		t.Fatalf("MemoryBytes = %d, want %d", got, 24+1+7+4)
	}
}

func TestEmptyVec(t *testing.T) {
	var v IDVec
	if v.Len() != 0 {
		t.Fatalf("Len = %d, want 0", v.Len())
	}
	v.Append(42)
	if v.Len() != 1 || v.Get(0) != 42 {
		t.Fatalf("after Append: len=%d v[0]=%d", v.Len(), v.Get(0))
	}
}

func TestDemotionOnAppend(t *testing.T) {
	v := NewIDVec([]uint64{0x0100, 0x0101}) // share 7 bytes
	if v.Z() != 7 {
		t.Fatalf("initial Z = %d, want 7", v.Z())
	}
	v.Append(0x0201) // differs in byte 7 -> z must shrink to 6
	if v.Z() != 6 {
		t.Fatalf("Z after demotion = %d, want 6", v.Z())
	}
	want := []uint64{0x0100, 0x0101, 0x0201}
	for i, w := range want {
		if got := v.Get(i); got != w {
			t.Fatalf("Get(%d) = %#x, want %#x", i, got, w)
		}
	}
	// Force demotion to z=0 with a very distant ID.
	v.Append(0xffffffffffffffff)
	if v.Z() != 0 {
		t.Fatalf("Z = %d, want 0", v.Z())
	}
	if v.Get(3) != 0xffffffffffffffff || v.Get(0) != 0x0100 {
		t.Fatalf("values corrupted after full demotion: %v", v.All())
	}
}

func TestDemotionSteps(t *testing.T) {
	// IDs differing only in the low 4 bytes should keep z=4.
	v := NewIDVec([]uint64{0xAABBCCDD_00000001, 0xAABBCCDD_F0000002})
	if v.Z() != 4 {
		t.Fatalf("Z = %d, want 4", v.Z())
	}
	got := v.All()
	if got[0] != 0xAABBCCDD_00000001 || got[1] != 0xAABBCCDD_F0000002 {
		t.Fatalf("All() = %#x", got)
	}
}

func TestSetAndSwap(t *testing.T) {
	v := NewIDVec([]uint64{1, 2, 3})
	v.Set(1, 9)
	if v.Get(1) != 9 {
		t.Fatalf("Set failed: %v", v.All())
	}
	v.Swap(0, 2)
	want := []uint64{3, 9, 1}
	got := v.All()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Swap result = %v, want %v", got, want)
		}
	}
	v.Swap(1, 1) // no-op
	if v.Get(1) != 9 {
		t.Fatal("self-swap corrupted data")
	}
}

func TestSetWithDemotion(t *testing.T) {
	v := NewIDVec([]uint64{0x10, 0x20})
	v.Set(0, 0xAA00000000000010)
	if v.Get(0) != 0xAA00000000000010 || v.Get(1) != 0x20 {
		t.Fatalf("Set demotion failed: %#x", v.All())
	}
}

func TestRemoveLast(t *testing.T) {
	v := NewIDVec([]uint64{1, 2, 3})
	v.RemoveLast()
	if v.Len() != 2 || v.Get(1) != 2 {
		t.Fatalf("RemoveLast: %v", v.All())
	}
	v.RemoveLast()
	v.RemoveLast()
	if v.Len() != 0 {
		t.Fatalf("Len = %d, want 0", v.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on RemoveLast of empty vector")
		}
	}()
	v.RemoveLast()
}

func TestIndexOf(t *testing.T) {
	v := NewIDVec([]uint64{10, 20, 30})
	if got := v.IndexOf(20); got != 1 {
		t.Fatalf("IndexOf(20) = %d, want 1", got)
	}
	if got := v.IndexOf(99); got != -1 {
		t.Fatalf("IndexOf(99) = %d, want -1", got)
	}
	// An ID outside the prefix cannot be present: quick reject.
	if got := v.IndexOf(0xFF00000000000000); got != -1 {
		t.Fatalf("IndexOf(far) = %d, want -1", got)
	}
}

func TestRecompress(t *testing.T) {
	v := NewIDVec([]uint64{0x10, 0xAA00000000000000})
	if v.Z() != 0 {
		t.Fatalf("Z = %d, want 0", v.Z())
	}
	// Drop the distant element, recompress: back to z=7.
	v.RemoveLast()
	v.Recompress()
	if v.Z() != 7 {
		t.Fatalf("Z after Recompress = %d, want 7", v.Z())
	}
	if v.Get(0) != 0x10 {
		t.Fatalf("value corrupted: %#x", v.Get(0))
	}
}

func TestUncompressed(t *testing.T) {
	ids := []uint64{0x10, 0x11, 0x12}
	v := NewUncompressed(ids)
	if v.Z() != 0 {
		t.Fatalf("Z = %d, want 0", v.Z())
	}
	for i, want := range ids {
		if v.Get(i) != want {
			t.Fatalf("Get(%d) = %#x, want %#x", i, v.Get(i), want)
		}
	}
	// 3 IDs * 8 bytes each, vs 3 bytes compressed.
	if v.MemoryBytes() <= NewIDVec(ids).MemoryBytes() {
		t.Fatal("uncompressed should cost more than compressed for clustered IDs")
	}
}

func TestGetManyMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Spreads that leave 7, 6, 4 and 0 shared prefix bytes.
	for _, spread := range []uint64{1 << 8, 1 << 16, 1 << 32, 0} {
		ids := make([]uint64, 100)
		for i := range ids {
			ids[i] = 0x5A5A5A5A5A5A5A5A ^ rng.Uint64()
			if spread != 0 {
				ids[i] = 0x5A5A5A5A00000000 | rng.Uint64()%spread
			}
		}
		for _, v := range []*IDVec{NewIDVec(ids), NewUncompressed(ids)} {
			idx := make([]int, 300)
			for i := range idx {
				idx[i] = rng.Intn(len(ids))
			}
			out := make([]uint64, len(idx))
			v.GetMany(idx, out)
			for i, j := range idx {
				if out[i] != v.Get(j) {
					t.Fatalf("z=%d GetMany[%d] (index %d) = %#x, Get gives %#x", v.Z(), i, j, out[i], v.Get(j))
				}
			}
		}
	}
}

func TestCompressionSavings(t *testing.T) {
	// 256 clustered IDs: compressed ~ 1+7+256 bytes vs 2048 raw.
	ids := make([]uint64, 256)
	for i := range ids {
		ids[i] = 0xAB00000000000000 | uint64(i)
	}
	c := NewIDVec(ids)
	u := NewUncompressed(ids)
	if c.Z() != 7 {
		t.Fatalf("Z = %d, want 7", c.Z())
	}
	ratio := float64(c.MemoryBytes()) / float64(u.MemoryBytes())
	if ratio > 0.25 {
		t.Fatalf("compression ratio %.2f, want <= 0.25", ratio)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(ids []uint64) bool {
		v := NewIDVec(ids)
		if v.Len() != len(ids) {
			return false
		}
		got := v.All()
		for i := range ids {
			if got[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAppendRoundTrip(t *testing.T) {
	prop := func(ids []uint64) bool {
		var v IDVec
		for _, id := range ids {
			v.Append(id)
		}
		got := v.All()
		for i := range ids {
			if got[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMutationAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var v IDVec
	var ref []uint64
	randID := func() uint64 {
		// Mostly clustered IDs with occasional outliers, to exercise
		// demotion.
		if rng.Intn(20) == 0 {
			return rng.Uint64()
		}
		return 0x7700000000000000 | uint64(rng.Intn(100000))
	}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(ref) == 0:
			id := randID()
			v.Append(id)
			ref = append(ref, id)
		case op == 1:
			i := rng.Intn(len(ref))
			id := randID()
			v.Set(i, id)
			ref[i] = id
		case op == 2:
			i, j := rng.Intn(len(ref)), rng.Intn(len(ref))
			v.Swap(i, j)
			ref[i], ref[j] = ref[j], ref[i]
		case op == 3:
			v.RemoveLast()
			ref = ref[:len(ref)-1]
		}
		if v.Len() != len(ref) {
			t.Fatalf("step %d: len %d vs %d", step, v.Len(), len(ref))
		}
		if step%211 == 0 {
			got := v.All()
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("step %d: [%d] %#x vs %#x", step, i, got[i], ref[i])
				}
			}
		}
	}
}

func BenchmarkAppendClustered(b *testing.B) {
	var v IDVec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Append(0x4200000000000000 | uint64(i&0xFFFF))
	}
}

func BenchmarkGet(b *testing.B) {
	ids := make([]uint64, 256)
	for i := range ids {
		ids[i] = 0x4200000000000000 | uint64(i)
	}
	v := NewIDVec(ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Get(i & 255)
	}
}

func TestInsertAtRemoveAt(t *testing.T) {
	v := NewIDVec([]uint64{10, 30})
	v.InsertAt(1, 20)
	want := []uint64{10, 20, 30}
	got := v.All()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InsertAt middle: %v, want %v", got, want)
		}
	}
	v.InsertAt(0, 5)
	v.InsertAt(4, 40)
	want = []uint64{5, 10, 20, 30, 40}
	got = v.All()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("InsertAt ends: %v, want %v", got, want)
		}
	}
	// Insert with demotion.
	v.InsertAt(2, 0xEE00000000000000)
	if v.Get(2) != 0xEE00000000000000 || v.Get(1) != 10 || v.Get(3) != 20 {
		t.Fatalf("InsertAt with demotion: %#x", v.All())
	}
	v.RemoveAt(2)
	want = []uint64{5, 10, 20, 30, 40}
	got = v.All()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RemoveAt: %v, want %v", got, want)
		}
	}
	v.RemoveAt(0)
	v.RemoveAt(3)
	want = []uint64{10, 20, 30}
	got = v.All()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RemoveAt ends: %v, want %v", got, want)
		}
	}
}

func TestInsertAtEmpty(t *testing.T) {
	var v IDVec
	v.InsertAt(0, 99)
	if v.Len() != 1 || v.Get(0) != 99 {
		t.Fatalf("InsertAt into empty: %v", v.All())
	}
}

func TestInsertRemovePanics(t *testing.T) {
	v := NewIDVec([]uint64{1})
	for name, fn := range map[string]func(){
		"InsertAt": func() { v.InsertAt(3, 5) },
		"RemoveAt": func() { v.RemoveAt(1) },
		"Get":      func() { v.Get(7) },
		"Set":      func() { v.Set(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
