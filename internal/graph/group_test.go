package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mapGroup is the map-based grouping, the oracle: the distinct ids of the
// concatenated lists in first-occurrence order, every position's index
// into them, and each distinct id's positions in order.
func mapGroup(lists [][]VertexID) (ids []VertexID, of []int32, runs [][]int32) {
	index := map[VertexID]int32{}
	for _, list := range lists {
		for _, v := range list {
			d, ok := index[v]
			if !ok {
				d = int32(len(ids))
				index[v] = d
				ids = append(ids, v)
				runs = append(runs, nil)
			}
			runs[d] = append(runs[d], int32(len(of)))
			of = append(of, d)
		}
	}
	return ids, of, runs
}

// group resets g to the lists' total length, adds each list, and lists the
// runs. It returns the distinct count after each Add.
func group(g *Grouping, lists [][]VertexID, extra int) []int {
	n := extra
	for _, list := range lists {
		n += len(list)
	}
	g.Reset(n)
	var after []int
	for _, list := range lists {
		g.Add(list)
		after = append(after, len(g.IDs))
	}
	g.Runs()
	return after
}

// checkGroup fails t unless g holds what mapGroup makes of lists, and after
// gives each Add's distinct count.
func checkGroup(t *testing.T, g *Grouping, lists [][]VertexID, after []int) {
	t.Helper()
	ids, of, runs := mapGroup(lists)
	if !slices.Equal(g.IDs, ids) || !slices.Equal(g.Of, of) {
		t.Fatalf("%v: IDs %v Of %v, want %v %v", lists, g.IDs, g.Of, ids, of)
	}
	if len(g.Bounds) != len(ids)+1 || g.Bounds[0] != 0 || len(g.Occ) != len(of) {
		t.Fatalf("%v: %d bounds and %d positions for %d ids and %d positions", lists, len(g.Bounds), len(g.Occ), len(ids), len(of))
	}
	for d, want := range runs {
		if got := g.Occ[g.Bounds[d]:g.Bounds[d+1]]; !slices.Equal(got, want) {
			t.Fatalf("%v: run of %v is %v, want %v", lists, ids[d], got, want)
		}
	}
	for i, got := range after {
		if want, _, _ := mapGroup(lists[:i+1]); got != len(want) {
			t.Fatalf("%v: %d distinct after list %d, want %d", lists, got, i, len(want))
		}
	}
}

// TestGroupingMatchesMap: one or more Add calls give the map version's
// distinct ids, positions and runs, on empty, repeat-free and repeat-heavy
// lists, vertex 0 included, through one Grouping reused across sizes. The
// GNN block builder's case (seeds and hop 1, then hop 2) keeps its
// expected values written out.
func TestGroupingMatchesMap(t *testing.T) {
	var g Grouping
	after := group(&g, [][]VertexID{{7, 0, 7}, {3, 0}, {9, 3, 9, 11, 0}}, 0)
	wantIDs := []VertexID{7, 0, 3, 9, 11}
	wantOf := []int32{0, 1, 0, 2, 1, 3, 2, 3, 4, 1}
	if after[1] != 3 || !slices.Equal(g.IDs, wantIDs) || !slices.Equal(g.Of, wantOf) {
		t.Fatalf("block lists = %v, %v, %d self; want %v, %v, 3", g.IDs, g.Of, after[1], wantIDs, wantOf)
	}

	rng := rand.New(rand.NewSource(1))
	cases := [][][]VertexID{
		{},
		{nil},
		{nil, nil},
		{{0}},
		{{0, 0, 0}},
		{{5, 1, 5, 0, 1, 9}},
		{{1, 2}, {2, 3, 1, 3}},
	}
	for _, n := range []int{17, 300, 4096} {
		ids := make([]VertexID, n)
		for i := range ids {
			ids[i] = VertexID(rng.Intn(n/2 + 1))
		}
		cases = append(cases, [][]VertexID{ids}, [][]VertexID{ids[:n/3], ids[n/3:]})
	}
	distinct := make([]VertexID, 500)
	for i := range distinct {
		distinct[i] = VertexID(rng.Uint64())
	}
	cases = append(cases, [][]VertexID{distinct})
	for _, lists := range cases {
		after := group(&g, lists, 0)
		checkGroup(t, &g, lists, after)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Add past the size given to Reset did not panic")
		}
	}()
	g.Reset(2)
	g.Add([]VertexID{1, 2, 3, 4, 5})
}

// FuzzGrouping splits a list into several Add calls and checks the result
// against the map version, then groups it again in the same Grouping after
// a larger Reset.
func FuzzGrouping(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0}, uint8(1), uint8(3))
	f.Add([]byte{5, 1, 5, 0, 1, 9, 0x85, 0x85}, uint8(3), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, cut, extra uint8) {
		// Small ids repeat; a set top bit moves the id into vertex type 1.
		ids := make([]VertexID, len(data))
		for i, b := range data {
			ids[i] = VertexID(uint64(b&0x7f) | uint64(b>>7)<<56)
		}
		// Cut the list into up to four lists, empty ones included.
		var lists [][]VertexID
		rest := ids
		for k := 0; k < 3; k++ {
			at := (int(cut) >> (2 * k) & 3) * len(rest) / 3
			lists = append(lists, rest[:at])
			rest = rest[at:]
		}
		lists = append(lists, rest)
		var g Grouping
		checkGroup(t, &g, lists, group(&g, lists, 0))
		checkGroup(t, &g, [][]VertexID{ids}, group(&g, [][]VertexID{ids}, int(extra)))
	})
}

// BenchmarkGrouping groups lists at train-cluster's hop-2 shape (256 seeds,
// fan-outs 10 and 5): the 2 560-id frontier hop 2 samples from, and the
// 12 800 ids it yields. Each draws from a vertex set 2.5 times smaller
// than the list, so about 60% of its positions repeat an earlier one.
func BenchmarkGrouping(b *testing.B) {
	for _, n := range []int{2560, 12800} {
		rng := rand.New(rand.NewSource(35))
		ids := make([]VertexID, n)
		for i := range ids {
			ids[i] = MakeVertexID(0, uint64(rng.Intn(n*2/5)))
		}
		b.Run(fmt.Sprintf("ids=%d", n), func(b *testing.B) {
			var g Grouping
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Reset(len(ids))
				g.Add(ids)
				g.Runs()
			}
			b.ReportMetric(float64(len(g.IDs)), "distinct/op")
		})
	}
}
