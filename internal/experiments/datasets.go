// Package experiments regenerates every table and figure from the paper's
// evaluation (Section 4). Each experiment prints the same rows/series the
// paper reports; Registry is the per-experiment index, and README
// "Experiments and benchmarks" says what each table is measured against.
package experiments

import (
	"fmt"

	"shp/internal/gen"
	"shp/internal/hypergraph"
)

// Dataset describes one Table 1 stand-in. Sizes are the paper's; Build
// scales them down so experiments finish on one machine (README
// "Experiments and benchmarks": shapes, not absolute sizes, drive the
// results).
type Dataset struct {
	Name string
	// Paper sizes (Table 1).
	Q, D int
	E    int64
	// Kind selects the generator: "powerlaw" (web/soc graphs) or "social"
	// (the Darwini-like FB-* family, ego-net hyperedges).
	Kind string
	// Exponent for the power-law generator.
	Exponent float64
	// CommunitySize for the social generator.
	CommunitySize int
	// DefaultScale keeps the default harness runs laptop-sized; the
	// --scale flag multiplies it.
	DefaultScale float64
}

// Datasets mirrors Table 1.
var Datasets = []Dataset{
	{Name: "email-Enron", Q: 25481, D: 36692, E: 356451, Kind: "powerlaw", Exponent: 2.0, DefaultScale: 1},
	{Name: "soc-Epinions", Q: 31149, D: 75879, E: 479645, Kind: "powerlaw", Exponent: 2.1, DefaultScale: 1},
	{Name: "web-Stanford", Q: 253097, D: 281903, E: 2283863, Kind: "powerlaw", Exponent: 2.3, DefaultScale: 0.4},
	{Name: "web-BerkStan", Q: 609527, D: 685230, E: 7529636, Kind: "powerlaw", Exponent: 2.3, DefaultScale: 0.15},
	{Name: "soc-Pokec", Q: 1277002, D: 1632803, E: 30466873, Kind: "powerlaw", Exponent: 2.1, DefaultScale: 0.04},
	{Name: "soc-LJ", Q: 3392317, D: 4847571, E: 68077638, Kind: "powerlaw", Exponent: 2.1, DefaultScale: 0.015},
	{Name: "FB-10M", Q: 32296, D: 32770, E: 10099740, Kind: "social", CommunitySize: 60, DefaultScale: 0.3},
	{Name: "FB-50M", Q: 152263, D: 154551, E: 49998426, Kind: "social", CommunitySize: 80, DefaultScale: 0.06},
	{Name: "FB-2B", Q: 6063442, D: 6153846, E: 2e9, Kind: "social", CommunitySize: 100, DefaultScale: 0.0015},
	{Name: "FB-5B", Q: 15150402, D: 15376099, E: 5e9, Kind: "social", CommunitySize: 100, DefaultScale: 0.0006},
	{Name: "FB-10B", Q: 30302615, D: 40361708, E: 10e9, Kind: "social", CommunitySize: 100, DefaultScale: 0.0003},
}

// DatasetByName looks a dataset up.
func DatasetByName(name string) (Dataset, bool) {
	for _, d := range Datasets {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Build generates the stand-in at DefaultScale * scaleMult, prunes
// degree-<2 queries (Section 4.1), and returns it.
func (ds Dataset) Build(scaleMult float64, seed uint64) (*hypergraph.Bipartite, error) {
	scale := ds.DefaultScale * scaleMult
	if scale <= 0 {
		return nil, fmt.Errorf("experiments: non-positive scale for %s", ds.Name)
	}
	if scale > 1 {
		scale = 1
	}
	q := scaleInt(ds.Q, scale, 500)
	d := scaleInt(ds.D, scale, 500)
	e := int64(float64(ds.E) * scale)
	var g *hypergraph.Bipartite
	var err error
	switch ds.Kind {
	case "powerlaw":
		g, err = gen.PowerLawBipartite(q, d, e, ds.Exponent, seed)
	case "social":
		avgDeg := int(e) / max(q, 1)
		// Keep the scaled graph sparse enough to be partitionable: ego-net
		// size cannot exceed a fraction of the population.
		if avgDeg > d/8 {
			avgDeg = d / 8
		}
		if avgDeg < 4 {
			avgDeg = 4
		}
		g, err = gen.SocialEgoNets(d, avgDeg, ds.CommunitySize, 0.85, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset kind %q", ds.Kind)
	}
	if err != nil {
		return nil, err
	}
	return hypergraph.PruneTrivialQueries(g, 2), nil
}

func scaleInt(v int, scale float64, floor int) int {
	s := int(float64(v) * scale)
	if s < floor {
		s = floor
	}
	if s > v {
		s = v
	}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
