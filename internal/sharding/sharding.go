// Package sharding simulates the storage-sharding experiment of
// Section 4.2.1: a memory-backed key-value store spread over servers, where
// a multi-get query issues one request per distinct server holding its
// records, in parallel, and completes when the slowest request returns.
//
// The per-request latency model is a lognormal body with an exponential
// straggler tail, normalized so a single request has mean latency 1 — all
// reported latencies are therefore in units of t, "the average latency of a
// single call", exactly how Figure 4 is labeled. The tail is what makes
// fanout expensive: the more servers a query touches, the higher the chance
// of hitting a straggler (the "tail at scale" effect the paper cites).
package sharding

import (
	"fmt"
	"math"
	"slices"

	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
	"shp/internal/stats"
)

// LatencyModel generates per-request latencies in units of the mean.
type LatencyModel struct {
	// Sigma is the lognormal shape of the latency body (default 0.35).
	Sigma float64
	// TailProb is the probability a request hits a straggler (default 0.03).
	TailProb float64
	// TailScale is the mean extra latency multiplier of a straggler, in
	// units of t (default 6).
	TailScale float64
	// SizeCost charges requests for their size: a request for s records
	// costs an extra SizeCost*(s-1) units (default 0 — the paper's
	// Section 5 caveat, off unless studied explicitly).
	SizeCost float64
}

func (m LatencyModel) withDefaults() LatencyModel {
	if m.Sigma == 0 {
		m.Sigma = 0.35
	}
	if m.TailProb == 0 {
		m.TailProb = 0.03
	}
	if m.TailScale == 0 {
		m.TailScale = 6
	}
	return m
}

// Sample draws one request latency (mean 1 over the full distribution).
func (m LatencyModel) Sample(r *rng.RNG) float64 {
	m = m.withDefaults()
	// Lognormal with mean 1: mu = -sigma^2/2. Each product is converted to
	// float64 so arm64 rounds it before the add, as amd64 does, and the
	// latencies the benchmark reports match on both.
	lat := math.Exp(float64(-m.Sigma*m.Sigma/2) + float64(m.Sigma*r.NormFloat64()))
	if r.Float64() < m.TailProb {
		lat += float64(r.ExpFloat64() * m.TailScale)
	}
	// Normalize the tail's mean contribution away.
	return lat / (1 + float64(m.TailProb*m.TailScale))
}

// MultiGet returns the latency of a query that issues the given per-server
// request sizes in parallel: the max over the per-request latencies.
func (m LatencyModel) MultiGet(r *rng.RNG, requestSizes []int) float64 {
	m = m.withDefaults()
	worst := 0.0
	for _, s := range requestSizes {
		lat := m.Sample(r)
		if m.SizeCost > 0 && s > 1 {
			lat += float64(m.SizeCost * float64(s-1)) // rounded as in Sample
		}
		if lat > worst {
			worst = lat
		}
	}
	return worst
}

// PercentileRow is one fanout value's latency distribution, in units of t.
type PercentileRow struct {
	Fanout  int
	Queries int
	P50     float64
	P90     float64
	P95     float64
	P99     float64
	Mean    float64
}

// LatencyVsFanout reproduces Figure 4a: for each fanout 1..maxFanout, sample
// `samples` multi-get queries of that fanout (one record per server) and
// report latency percentiles.
func LatencyVsFanout(m LatencyModel, maxFanout, samples int, seed uint64) []PercentileRow {
	rows := make([]PercentileRow, 0, maxFanout)
	for f := 1; f <= maxFanout; f++ {
		r := rng.NewStream(seed, uint64(f))
		sizes := make([]int, f)
		for i := range sizes {
			sizes[i] = 1
		}
		lat := make([]float64, samples)
		for i := range lat {
			lat[i] = m.MultiGet(r, sizes)
		}
		ps := stats.Percentiles(lat, 50, 90, 95, 99)
		rows = append(rows, PercentileRow{
			Fanout: f, Queries: samples,
			P50: ps[0], P90: ps[1], P95: ps[2], P99: ps[3],
			Mean: stats.Mean(lat),
		})
	}
	return rows
}

// Cluster is a sharded store: an assignment of records (data vertices) to
// servers plus a latency model.
type Cluster struct {
	servers    int
	assignment partition.Assignment
	model      LatencyModel
}

// NewCluster validates and wraps an assignment.
func NewCluster(servers int, assignment partition.Assignment, model LatencyModel) (*Cluster, error) {
	if servers < 1 {
		return nil, fmt.Errorf("sharding: need >= 1 server, got %d", servers)
	}
	if err := assignment.Validate(servers); err != nil {
		return nil, err
	}
	return &Cluster{servers: servers, assignment: assignment, model: model.withDefaults()}, nil
}

// Query executes one multi-get for the given records: requests go to every
// distinct server holding one of them, in ascending server order so the
// per-request latency draws pair with request sizes deterministically.
// Returns the fanout and latency.
func (c *Cluster) Query(r *rng.RNG, records []int32) (int, float64) {
	servers := make([]int32, len(records))
	for i, rec := range records {
		servers[i] = c.assignment[rec]
	}
	slices.Sort(servers)
	reqs := make([]int, 0, len(servers))
	for i := 0; i < len(servers); {
		j := i + 1
		for j < len(servers) && servers[j] == servers[i] {
			j++
		}
		reqs = append(reqs, j-i)
		i = j
	}
	return len(reqs), c.model.MultiGet(r, reqs)
}

// Measurement aggregates a replayed workload.
type Measurement struct {
	Rows      []PercentileRow
	AvgFanout float64
	AvgLat    float64
}

// ReplayQueries reproduces Figure 4b: issue every hyperedge of g as a
// multi-get against the cluster, bucket latencies by observed fanout, and
// report percentiles per fanout (dropping fanouts with fewer than minCount
// observations, as the paper does for fanout > 35).
func (c *Cluster) ReplayQueries(g *hypergraph.Bipartite, seed uint64, minCount int) Measurement {
	r := rng.NewStream(seed, 0x4EA1)
	byFanout := map[int][]float64{}
	var fanoutSum, latSum float64
	n := 0
	for q := 0; q < g.NumQueries(); q++ {
		records := g.QueryNeighbors(int32(q))
		if len(records) == 0 {
			continue
		}
		f, lat := c.Query(r, records)
		byFanout[f] = append(byFanout[f], lat)
		fanoutSum += float64(f)
		latSum += lat
		n++
	}
	var rows []PercentileRow
	for f := 1; f <= c.servers; f++ {
		lats := byFanout[f]
		if len(lats) < minCount {
			continue
		}
		ps := stats.Percentiles(lats, 50, 90, 95, 99)
		rows = append(rows, PercentileRow{
			Fanout: f, Queries: len(lats),
			P50: ps[0], P90: ps[1], P95: ps[2], P99: ps[3],
			Mean: stats.Mean(lats),
		})
	}
	m := Measurement{Rows: rows}
	if n > 0 {
		m.AvgFanout = fanoutSum / float64(n)
		m.AvgLat = latSum / float64(n)
	}
	return m
}
