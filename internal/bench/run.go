package bench

import "fmt"

// Experiments maps experiment IDs (DESIGN.md's per-experiment index) to
// their runners.
var Experiments = map[string]func(Config){
	"table2":   RunTable2,
	"fig8":     RunFig8Table4,
	"table4":   RunFig8Table4,
	"fig9":     RunFig9,
	"table5":   RunTable5,
	"fig10":    RunFig10,
	"fig11":    RunFig11,
	"gnn":      RunGNN,
	"ablation": RunAblations,
	"cluster":  RunCluster,
}

// Order is the presentation order for RunAll.
var Order = []string{"table2", "fig8", "fig9", "table5", "fig10", "fig11", "ablation", "cluster", "gnn"}

// RunAll executes every experiment in paper order (fig8 covers table4).
func RunAll(cfg Config) {
	cfg = cfg.WithDefaults()
	fmt.Fprintf(cfg.Out, "PlatoD2GL evaluation harness — %d logical edges per dataset, %d workers, seed %d\n",
		cfg.TargetEdges, cfg.Workers, cfg.Seed)
	for _, id := range Order {
		Experiments[id](cfg)
	}
}
