package gen

import (
	"fmt"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// Churn generates an endless stream of structural delta batches over a
// living hypergraph — the workload of the paper's production setting, where
// ego-nets and friendships change continuously and the partitioner is
// re-run incrementally (Section 5).
//
// Each batch removes a churn-fraction of the live hyperedges and replaces
// every one with a perturbed successor (most members kept, a few swapped
// for random vertices — the "friendships change" shape), and occasionally
// introduces brand-new data vertices that the successors then reference
// (the "new users join" shape). Batches chain: the delta returned by Next
// must be applied to the graph before the following Next call, which the
// generator verifies via the vertex counts.
type Churn struct {
	g    *hypergraph.Bipartite
	frac float64
	r    *rng.RNG
	live []int32 // live hyperedge ids (degree > 0)
	expQ int
	expD int
}

// NewChurn prepares a generator producing batches that each touch roughly
// churnFraction of g's live hyperedges. Deterministic for a fixed seed.
func NewChurn(g *hypergraph.Bipartite, churnFraction float64, seed uint64) (*Churn, error) {
	if churnFraction <= 0 || churnFraction > 1 {
		return nil, fmt.Errorf("gen: churn fraction %v outside (0, 1]", churnFraction)
	}
	c := &Churn{
		g:    g,
		frac: churnFraction,
		r:    rng.New(seed),
		expQ: g.NumQueries(),
		expD: g.NumData(),
	}
	for q := 0; q < g.NumQueries(); q++ {
		if g.QueryDegree(int32(q)) > 0 {
			c.live = append(c.live, int32(q))
		}
	}
	if len(c.live) == 0 {
		return nil, fmt.Errorf("gen: graph has no live hyperedges to churn")
	}
	return c, nil
}

// Next builds the next delta batch. The previous batch must have been
// applied to the graph already (Next reads live memberships to build the
// successor hyperedges); a count mismatch returns an error.
func (c *Churn) Next() (*hypergraph.Delta, error) {
	if c.g.NumQueries() != c.expQ || c.g.NumData() != c.expD {
		return nil, fmt.Errorf("gen: graph is %dx%d but the last delta expects %dx%d — apply it before calling Next",
			c.g.NumQueries(), c.g.NumData(), c.expQ, c.expD)
	}
	// Rounding the product keeps arm64 from fusing it with the + 0.5.
	m := int(float64(c.frac*float64(len(c.live))) + 0.5)
	if m < 1 {
		m = 1
	}
	if m > len(c.live) {
		m = len(c.live)
	}
	d := hypergraph.NewDelta(c.expQ, c.expD)

	// New users join at a tenth of the edge-churn rate.
	nNewD := int(c.frac * 0.1 * float64(c.expD))
	newD := make([]int32, 0, nNewD)
	for i := 0; i < nNewD; i++ {
		newD = append(newD, d.AddData(1))
	}

	// Pick all removals before enqueueing successors: ids added by this
	// batch are not in the graph yet and must not be chosen for removal.
	doomed := make([]int32, 0, m)
	for i := 0; i < m; i++ {
		j := c.r.Intn(len(c.live))
		doomed = append(doomed, c.live[j])
		c.live[j] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
	}
	for _, q := range doomed {
		members := c.g.QueryNeighbors(q) // read before the removal applies
		ms := make([]int32, 0, len(members)+1)
		for _, dv := range members {
			if c.r.Float64() < 0.25 {
				if len(newD) > 0 && c.r.Float64() < 0.3 {
					ms = append(ms, newD[c.r.Intn(len(newD))])
				} else {
					ms = append(ms, int32(c.r.Intn(c.expD)))
				}
			} else {
				ms = append(ms, dv)
			}
		}
		if len(ms) < 2 {
			ms = append(ms, int32(c.r.Intn(c.expD)))
		}
		d.RemoveHyperedge(q)
		c.live = append(c.live, d.AddHyperedge(ms...))
	}
	c.expQ += d.NewQueries()
	c.expD += d.NewData()
	return d, nil
}

// Batches generates n chained batches, applying each to the graph as it
// goes (the graph ends up in the post-trace state). Convenience for writing
// trace files and for tests.
func (c *Churn) Batches(n int) ([]*hypergraph.Delta, error) {
	out := make([]*hypergraph.Delta, 0, n)
	for i := 0; i < n; i++ {
		d, err := c.Next()
		if err != nil {
			return nil, err
		}
		if err := c.g.ApplyDelta(d); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
