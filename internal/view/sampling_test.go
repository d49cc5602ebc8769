// The sampling contract of GraphView, checked by distribution on both
// backends: per-hop marginals follow the edge weights, a vertex's draws at
// one hop are independent of its draws at another and of the hop before,
// and a repeated seed gets one block of draws.
package view_test

import (
	"fmt"
	"slices"
	"testing"

	"platod2gl/internal/cluster"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// contractTrials is the number of independently seeded views each
// distribution case samples through.
const contractTrials = 4000

// Vertices of the contract graph. Under relation 0, a has neighbors bs with
// weights 1:2:3:4 and each b has neighbors cs with weights 1:2:3. Under
// relation 1, bs[0] and bs[1] each have neighbors cs[0] and cs[1] with
// weight 1, and a has none.
var (
	ca = graph.MakeVertexID(0, 1)
	cb = []graph.VertexID{graph.MakeVertexID(1, 10), graph.MakeVertexID(1, 11), graph.MakeVertexID(1, 12), graph.MakeVertexID(1, 13)}
	cc = []graph.VertexID{graph.MakeVertexID(2, 20), graph.MakeVertexID(2, 21), graph.MakeVertexID(2, 22)}
)

func contractEvents() []graph.Event {
	var events []graph.Event
	add := func(src, dst graph.VertexID, et graph.EdgeType, w float64) {
		events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{Src: src, Dst: dst, Type: et, Weight: w}})
	}
	for i, b := range cb {
		add(ca, b, 0, float64(i+1))
		for j, c := range cc {
			add(b, c, 0, float64(j+1))
		}
	}
	for _, b := range cb[:2] {
		for _, c := range cc[:2] {
			add(b, c, 1, 1)
		}
	}
	return events
}

// contractBackends returns, for each backend holding the contract graph, a
// function that gives a view seeded by trial: view.Local over one store,
// and view.Cluster over a 2-server in-process cluster.
func contractBackends(t *testing.T) map[string]func(trial int64) view.GraphView {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{})
	store.ApplyBatch(contractEvents())
	attrs := kvstore.New()
	lc := cluster.NewLocalClusterOptions(2, cluster.LocalOptions{
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
	})
	t.Cleanup(lc.Shutdown)
	client := lc.Client()
	if err := client.ApplyBatch(contractEvents()); err != nil {
		t.Fatal(err)
	}
	return map[string]func(int64) view.GraphView{
		"local": func(trial int64) view.GraphView {
			return view.NewLocal(store, attrs, sampler.Options{Parallelism: 2, Seed: trial})
		},
		"cluster": func(trial int64) view.GraphView { return view.NewCluster(client, trial) },
	}
}

// indexOf is v's index in of, failing t if v is not there.
func indexOf(t *testing.T, v graph.VertexID, of []graph.VertexID) int {
	t.Helper()
	i := slices.Index(of, v)
	if i < 0 {
		t.Fatalf("sampled %v, want one of %v", v, of)
	}
	return i
}

// chiSquare is Pearson's statistic of counts against the probabilities p
// (normalized here) over their total.
func chiSquare(counts, p []float64) float64 {
	var n, sum float64
	for i := range counts {
		n += counts[i]
		sum += p[i]
	}
	chi := 0.0
	for i, o := range counts {
		e := n * p[i] / sum
		chi += (o - e) * (o - e) / e
	}
	return chi
}

// outer is the joint distribution of two independent draws, row-major.
func outer(p, q []float64) []float64 {
	var out []float64
	for _, x := range p {
		for _, y := range q {
			out = append(out, x*y)
		}
	}
	return out
}

// Upper 0.001 quantiles of the chi-square distribution, by degrees of
// freedom.
var chi999 = map[int]float64{2: 13.82, 3: 16.27, 9: 27.88}

// TestSamplingContract checks GraphView's sampling contract through
// view.Local and through a 2-server view.Cluster.
func TestSamplingContract(t *testing.T) {
	for name, viewAt := range contractBackends(t) {
		t.Run(name, func(t *testing.T) { testContract(t, viewAt) })
	}
}

// testContract checks the contract on the views viewAt gives, one per
// trial seed.
func testContract(t *testing.T, viewAt func(trial int64) view.GraphView) {
	wb, wc := []float64{1, 2, 3, 4}, []float64{1, 2, 3}
	sample := func(t *testing.T, trial int64, seeds []graph.VertexID, path graph.MetaPath, fanouts []int) [][]graph.VertexID {
		t.Helper()
		layers, err := viewAt(trial).SampleSubgraph(seeds, path, fanouts)
		if err != nil {
			t.Fatal(err)
		}
		return layers
	}
	check := func(t *testing.T, what string, counts, p []float64, df int) {
		t.Helper()
		if chi := chiSquare(counts, p); chi > chi999[df] {
			t.Errorf("%s: chi-square %.1f over %d degrees of freedom, counts %v, weights %v", what, chi, df, counts, p)
		}
	}

	// Hop 1 draws a's neighbors, hop 2 draws again from a (the first
	// vertex of the frontier) and from each distinct b, each by weight.
	t.Run("marginals", func(t *testing.T) {
		hop1, hop2a := make([]float64, 4), make([]float64, 4)
		hop2b := make([][]float64, 4)
		for i := range hop2b {
			hop2b[i] = make([]float64, 3)
		}
		for trial := int64(0); trial < contractTrials/4; trial++ {
			layers := sample(t, trial, []graph.VertexID{ca}, graph.MetaPath{0, 0}, []int{4, 3})
			var front graph.Grouping
			frontier := front.Frontier([]graph.VertexID{ca}, layers[:1])
			for _, b := range layers[0] {
				hop1[indexOf(t, b, cb)]++
			}
			for j, v := range frontier {
				for _, d := range layers[1][3*j : 3*j+3] {
					if v == ca {
						hop2a[indexOf(t, d, cb)]++
					} else {
						hop2b[indexOf(t, v, cb)][indexOf(t, d, cc)]++
					}
				}
			}
		}
		check(t, "hop 1 from a", hop1, wb, 3)
		check(t, "hop 2 from a", hop2a, wb, 3)
		for i, counts := range hop2b {
			check(t, fmt.Sprintf("hop 2 from b%d", i), counts, wc, 2)
		}
	})

	// a is a seed and a frontier vertex: its first hop-1 draw and its
	// first hop-2 draw are independent. A hop that reused the stream of
	// the one before would draw the same b twice.
	t.Run("layers-independent", func(t *testing.T) {
		joint := make([]float64, 16)
		for trial := int64(0); trial < contractTrials; trial++ {
			layers := sample(t, trial, []graph.VertexID{ca}, graph.MetaPath{0, 0}, []int{1, 1})
			joint[4*indexOf(t, layers[0][0], cb)+indexOf(t, layers[1][0], cb)]++
		}
		check(t, "a's hop-1 and hop-2 draws", joint, outer(wb, wb), 9)
	})

	// a -> {b0, b1} -> {c0, c1} under relations 0 then 1, fan-outs 1x1:
	// the frontier of hop 2 is [a, b], a yields itself, and the joint
	// (b, c) counts follow the product distribution.
	t.Run("hops-independent", func(t *testing.T) {
		joint := make([]float64, 16)
		for trial := int64(0); trial < contractTrials; trial++ {
			layers := sample(t, trial, []graph.VertexID{ca}, graph.MetaPath{0, 1}, []int{1, 1})
			b := layers[0][0]
			if len(layers[1]) != 2 || layers[1][0] != ca {
				t.Fatalf("hop 2 over the frontier [a, %v] gave %v", b, layers[1])
			}
			if i := indexOf(t, b, cb); i < 2 {
				joint[2*i+indexOf(t, layers[1][1], cc[:2])]++
			}
		}
		// b0 and b1 are drawn with weights 1 and 2.
		check(t, "hops 1 and 2", joint[:4], outer([]float64{1, 2}, []float64{1, 1}), 3)
	})

	// A seed repeated in SampleNeighbors gets one block, copied; in
	// SampleSubgraph it is drawn once.
	t.Run("repeated-seed", func(t *testing.T) {
		const f = 6
		v := viewAt(7)
		seeds := []graph.VertexID{ca, cb[0], ca, cb[2], ca}
		nb, err := v.SampleNeighbors(seeds, 0, f)
		if err != nil {
			t.Fatal(err)
		}
		block := nb[:f]
		if !slices.Equal(nb[2*f:3*f], block) || !slices.Equal(nb[4*f:5*f], block) {
			t.Fatalf("a's occurrences got different blocks: %v", nb)
		}
		if slices.Equal(nb[f:2*f], nb[3*f:4*f]) {
			t.Fatalf("b0 and b2 got the same block: %v", nb)
		}
		layers, err := v.SampleSubgraph(seeds, graph.MetaPath{0, 0}, []int{f, 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(layers[0]) != 3*f {
			t.Fatalf("SampleSubgraph drew %d hop-1 samples for 3 distinct seeds at fan-out %d", len(layers[0]), f)
		}
	})
}
