// Package gen synthesizes the hypergraphs the experiments run on.
//
// The paper evaluates on SNAP social/web graphs and on Darwini-generated
// Facebook-like graphs (Table 1). Neither source is available offline, so
// this package builds structural stand-ins:
//
//   - PowerLawBipartite: a Chung–Lu style bipartite graph with power-law
//     query and data degrees — the shape of the web-* and soc-* datasets.
//   - SocialEgoNets: a community-structured friendship graph (a Darwini-like
//     construction: heavy intra-community wiring plus random long-range
//     edges) turned into a hypergraph where every user is a query whose
//     hyperedge spans its friends — exactly the storage-sharding workload
//     the paper motivates ("to render a profile-page ... fetch information
//     about a user's friends").
//   - PlantedPartition: a hypergraph with ground-truth communities, used to
//     verify partitioners can recover obvious structure.
//
// What matters for reproducing the paper's qualitative results is skewed
// degrees plus exploitable locality, which these generators provide (README
// "Experiments and benchmarks").
package gen

import (
	"fmt"
	"math"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// PowerLawBipartite generates a bipartite graph with roughly numEdges
// incidences where query degrees follow a power law with the given exponent
// (typical web graphs: 2.0–2.5) and data vertices are chosen with skewed
// popularity. Duplicate incidences are removed, so the realized edge count
// is slightly below the target.
func PowerLawBipartite(numQ, numD int, numEdges int64, exponent float64, seed uint64) (*hypergraph.Bipartite, error) {
	if numQ <= 0 || numD <= 0 {
		return nil, fmt.Errorf("gen: need positive vertex counts, got %d/%d", numQ, numD)
	}
	b := hypergraph.NewBuilder(numQ, numD)
	addPowerLawQueries(b, 0, numQ, numD, numEdges, exponent, seed)
	return b.Build()
}

// addPowerLawQueries appends count queries (ids qStart..qStart+count-1)
// whose degrees follow a power law against a ~budget incidence total,
// wired to skew-popular data vertices — the tail generator shared by
// PowerLawBipartite (the whole graph) and HubPowerLawBipartite (everything
// after the pinned hubs).
func addPowerLawQueries(b *hypergraph.Builder, qStart, count, numD int, budget int64, exponent float64, seed uint64) {
	r := rng.New(seed)
	// Zipf-ish weights for query degrees.
	qw := powerWeights(count, exponent, r)
	var qwSum float64
	for _, w := range qw {
		qwSum += w
	}
	// Data popularity: milder skew (exponent + 0.5 tempers hub explosion).
	dw := powerWeights(numD, exponent+0.5, r)
	dAlias := newAlias(dw, rng.NewStream(seed, 1))

	for q := 0; q < count; q++ {
		deg := int(float64(budget) * qw[q] / qwSum)
		if deg < 2 {
			deg = 2 // degree-1 queries are pruned anyway (Sec. 4.1)
		}
		if deg > numD {
			deg = numD
		}
		for e := 0; e < deg; e++ {
			b.AddEdge(int32(qStart+q), dAlias.sample())
		}
	}
}

// HubPowerLawBipartite generates a power-law bipartite graph with a pinned
// fraction of maximum-degree hub queries: the first
// round(hubFraction·numQ) queries (at least one) each span exactly
// hubDegree distinct data vertices (hubDegree <= 0 defaults to numD/4),
// and the remaining queries draw power-law degrees against the leftover
// incidence budget, exactly like PowerLawBipartite.
//
// The preset exists to make hub-frontier refinement costs reproducible:
// whenever a member of a hub hyperedge moves, any refiner that re-walks
// dirty-query memberships pays O(hubDegree) per member per iteration,
// while the patched-accumulator engines pay O(records). The benchmarks pin
// their speedups on this shape.
func HubPowerLawBipartite(numQ, numD int, numEdges int64, exponent, hubFraction float64, hubDegree int, seed uint64) (*hypergraph.Bipartite, error) {
	if numQ <= 0 || numD <= 0 {
		return nil, fmt.Errorf("gen: need positive vertex counts, got %d/%d", numQ, numD)
	}
	if hubFraction < 0 || hubFraction > 1 {
		return nil, fmt.Errorf("gen: hubFraction %v outside [0,1]", hubFraction)
	}
	if hubDegree <= 0 {
		hubDegree = numD / 4
	}
	if hubDegree > numD {
		hubDegree = numD
	}
	if hubDegree < 2 {
		hubDegree = 2
	}
	// Rounding the product keeps arm64 from fusing it with the + 0.5.
	nHubs := int(float64(hubFraction*float64(numQ)) + 0.5)
	if nHubs < 1 {
		nHubs = 1
	}
	if nHubs > numQ {
		nHubs = numQ
	}
	b := hypergraph.NewBuilder(numQ, numD)
	for h := 0; h < nHubs; h++ {
		// Distinct members via a per-hub permutation: the hub degree is
		// exact, not a dedup casualty.
		perm := rng.NewStream(seed, 0x4B0B^uint64(h)+1).Perm(numD)
		for _, d := range perm[:hubDegree] {
			b.AddEdge(int32(h), int32(d))
		}
	}
	rest := numQ - nHubs
	budget := numEdges - int64(nHubs)*int64(hubDegree)
	if rest > 0 && budget > 0 {
		addPowerLawQueries(b, nHubs, rest, numD, budget, exponent, seed)
	}
	return b.Build()
}

// SocialEgoNets generates an n-user friendship graph with planted
// communities, then returns the ego-net hypergraph: user u's hyperedge spans
// u and its friends. intraProb is the fraction of each user's edges that
// stay inside its community.
func SocialEgoNets(n, avgDeg, communitySize int, intraProb float64, seed uint64) (*hypergraph.Bipartite, error) {
	if n <= 0 || avgDeg <= 0 || communitySize <= 0 {
		return nil, fmt.Errorf("gen: bad SocialEgoNets parameters n=%d avgDeg=%d communitySize=%d", n, avgDeg, communitySize)
	}
	if intraProb < 0 || intraProb > 1 {
		return nil, fmt.Errorf("gen: intraProb %v outside [0,1]", intraProb)
	}
	r := rng.New(seed)
	// Degree skew: lognormal-ish multiplier around avgDeg, matching the
	// heavy-tailed friend counts Darwini models.
	b := hypergraph.NewBuilder(n, n)
	numCommunities := (n + communitySize - 1) / communitySize
	for u := 0; u < n; u++ {
		mult := math.Exp(r.NormFloat64() * 0.6)
		deg := int(float64(avgDeg) * mult)
		if deg < 2 {
			deg = 2
		}
		if deg > n-1 {
			deg = n - 1
		}
		c := u / communitySize
		b.AddEdge(int32(u), int32(u)) // a user's page needs its own record
		for e := 0; e < deg; e++ {
			var friend int
			if r.Float64() < intraProb {
				lo := c * communitySize
				hi := lo + communitySize
				if hi > n {
					hi = n
				}
				friend = lo + r.Intn(hi-lo)
			} else {
				// Long-range edge, biased toward nearby communities the way
				// real geography/interest graphs are.
				cc := (c + 1 + r.Intn(numCommunities)) % numCommunities
				lo := cc * communitySize
				hi := lo + communitySize
				if hi > n {
					hi = n
				}
				if hi <= lo {
					continue
				}
				friend = lo + r.Intn(hi-lo)
			}
			if friend != u {
				b.AddEdge(int32(u), int32(friend))
			}
		}
	}
	return b.Build()
}

// PlantedPartition generates a hypergraph whose data vertices belong to k
// ground-truth groups; each query picks qdeg vertices from one group with
// probability purity, otherwise uniformly. purity = 1 gives fully separable
// communities (optimal fanout 1).
func PlantedPartition(k, perGroup, numQ, qdeg int, purity float64, seed uint64) (*hypergraph.Bipartite, error) {
	if k <= 0 || perGroup <= 0 || numQ <= 0 || qdeg <= 0 {
		return nil, fmt.Errorf("gen: bad PlantedPartition parameters")
	}
	if purity < 0 || purity > 1 {
		return nil, fmt.Errorf("gen: purity %v outside [0,1]", purity)
	}
	r := rng.New(seed)
	nd := k * perGroup
	b := hypergraph.NewBuilder(numQ, nd)
	for q := 0; q < numQ; q++ {
		group := r.Intn(k)
		for e := 0; e < qdeg; e++ {
			if r.Float64() < purity {
				b.AddEdge(int32(q), int32(group*perGroup+r.Intn(perGroup)))
			} else {
				b.AddEdge(int32(q), int32(r.Intn(nd)))
			}
		}
	}
	return b.Build()
}

// GroundTruth returns the planted assignment for a PlantedPartition graph.
func GroundTruth(k, perGroup int) []int32 {
	out := make([]int32, k*perGroup)
	for i := range out {
		out[i] = int32(i / perGroup)
	}
	return out
}

// powerWeights draws n weights w_i ∝ u^(1/(1-exponent)) — i.e. Pareto tails.
func powerWeights(n int, exponent float64, r *rng.RNG) []float64 {
	w := make([]float64, n)
	inv := 1 / (exponent - 1)
	for i := range w {
		u := r.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		w[i] = math.Pow(u, -inv)
		if w[i] > float64(n) {
			w[i] = float64(n) // cap hubs at n
		}
	}
	return w
}

// alias implements Walker's alias method for O(1) weighted sampling.
type alias struct {
	prob  []float64
	alias []int32
	r     *rng.RNG
}

func newAlias(weights []float64, r *rng.RNG) *alias {
	n := len(weights)
	a := &alias{prob: make([]float64, n), alias: make([]int32, n), r: r}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	scaled := make([]float64, n)
	var small, large []int32
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1
	}
	return a
}

func (a *alias) sample() int32 {
	i := a.r.Intn(len(a.prob))
	if a.r.Float64() < a.prob[i] {
		return int32(i)
	}
	return a.alias[i]
}
