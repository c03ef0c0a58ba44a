package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"shp"
	"shp/internal/rng"
	"shp/internal/stats"
)

// Config is one run's input. The command line sets everything but Scale,
// which stays 1 there: sizes are constants, and only the package's own test
// shrinks them through the Go API.
type Config struct {
	Seed uint64
	// Seconds is how long the timed region runs.
	Seconds float64
	// Trace selects the traced pass: spans are recorded, the extra reps run,
	// and the per-layer metrics are reported instead of the end-to-end ones.
	Trace bool
	// Scale multiplies every generator size and repetition floor.
	Scale float64
	// OutDir receives the run's result JSON, its trace file and the
	// checkpoint directories of dist-tcp-social.
	OutDir string
}

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is everything one run of one workload measured.
type Result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Correct is false when any output check failed.
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics holds the reported set: LedgerEndToEnd untraced,
	// TracedMetrics traced.
	Metrics map[string]Value `json:"metrics"`
	// Samples is the number of timed samples behind each timing metric.
	Samples map[string]int `json:"samples"`
	// SelfSeconds is the traced wall by span name, children excluded.
	SelfSeconds map[string]float64 `json:"self_seconds,omitempty"`
}

// env is what a workload's run function works with.
type env struct {
	cfg   Config
	tr    *Tracer
	speed *speedMeter

	attempted int
	failures  []string

	// m collects every metric the workload measured, by name; report picks
	// the set the pass reports and fills 0 for layers that did nothing.
	m       map[string]float64
	samples map[string]int

	// stolen and probes are the corrections settle applied, one per interval.
	stolen, probes []float64
}

// check counts one output check. A failed check is kept and fails the
// command; it is never skipped.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

func (e *env) set(name string, v float64) { e.m[name] = v }

// setMedian reports the median of samples and records how many there were.
func (e *env) setMedian(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	e.m[name] = stats.Percentile(samples, 50)
	e.samples[name] = len(samples)
}

// settle turns d, measured since mk, into seconds at reference speed (see
// speed.go) and keeps the corrections for the per-layer report. Every
// end-to-end timing goes through it; per-layer timings stay raw.
func (e *env) settle(mk speedMark, d time.Duration) float64 {
	secs, stolen, probe := e.speed.settle(mk, d)
	e.stolen = append(e.stolen, stolen)
	e.probes = append(e.probes, probe)
	return secs
}

// scaled applies the test-only scale to a size, never going below floor.
func (e *env) scaled(n, floor int) int {
	return max(int(float64(n)*e.cfg.Scale), floor)
}

// Set-up is repeated so that setup_s is a median: at least setupMinReps
// times, and until setupBudget has been spent, so a cheap set-up gets more
// samples instead of a noisier number.
const (
	setupMinReps = 3
	setupMaxReps = 15
	setupBudget  = 1500 * time.Millisecond
)

// setup times build — generate and serialise the inputs and build the state
// the timed region starts from — and keeps the state of the last call.
func (e *env) setup(build func() error) error {
	var secs []float64
	var spent time.Duration
	for len(secs) < setupMinReps || (spent < time.Duration(float64(setupBudget)*e.cfg.Scale) && len(secs) < setupMaxReps) {
		e.tr.Record(e.cfg.Trace, len(secs))
		var err error
		mk := e.speed.mark()
		d := e.tr.Span("bench.setup", func() { err = build() })
		if err != nil {
			return err
		}
		secs = append(secs, e.settle(mk, d))
		spent += d
	}
	e.tr.Record(false, 0)
	e.setMedian("setup_s", secs)
	return nil
}

// timedLoop calls rep until the run's seconds have passed and at least
// minReps reps are in. In the traced pass every other rep records spans, so
// one process measures both sides of bench.trace_overhead_share.
func (e *env) timedLoop(minReps int, rep func(i int, traced bool) error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < e.cfg.Seconds; i++ {
		traced := e.cfg.Trace && i%2 == 1
		e.tr.Record(traced, i)
		if err := rep(i, traced); err != nil {
			return err
		}
	}
	e.tr.Record(false, 0)
	return nil
}

// traceOverhead reports traced ÷ untraced − 1 over the medians of the two
// halves of a traced pass's timed loop.
func (e *env) traceOverhead(untraced, traced []float64) {
	e.set("bench.trace_overhead_share", stats.Percentile(traced, 50)/stats.Percentile(untraced, 50)-1)
}

// hashAssignment is the zero-state floor the paper compares against:
// vertex v goes to bucket Mix(seed, v) mod k, with no knowledge of the graph.
func hashAssignment(n, k int, seed uint64) shp.Assignment {
	a := make(shp.Assignment, n)
	for v := range a {
		a[v] = int32(rng.Mix(seed, uint64(v)) % uint64(k))
	}
	return a
}

// qualityRep is the rep index on the spans of the untimed quality pass.
const qualityRep = -1

// replayMultiGets is how many multi-gets the replay issues at least: every
// live hyperedge, in as many whole passes as it takes. One pass over the
// 12 000 queries of the smallest workload rests p99 on 120 samples, which
// moves it by 8 % from seed to seed.
const replayMultiGets = 200000

// quality measures the final assignment on the final graph outside the
// timed region — fanout against the hash baseline, balance, and every live
// hyperedge replayed as a multi-get through the sharding simulator — and
// runs the checks every workload shares.
func (e *env) quality(g *shp.Hypergraph, a shp.Assignment, k int) error {
	e.check(len(a) == g.NumData(), "assignment has %d entries for %d data vertices", len(a), g.NumData())
	err := a.Validate(k)
	e.check(err == nil, "assignment invalid: %v", err)
	if err != nil || len(a) != g.NumData() {
		return nil // the metrics below would index out of range
	}

	e.tr.Record(e.cfg.Trace, qualityRep)
	defer e.tr.Record(false, 0)
	var fanout float64
	d := e.tr.Span("shp.Fanout", func() { fanout = shp.Fanout(g, a, k) })
	e.set("partition.fanout_s", d.Seconds())
	hashFanout := shp.Fanout(g, hashAssignment(g.NumData(), k, e.cfg.Seed), k)
	e.set("fanout", fanout)
	e.set("fanout_vs_hash", fanout/hashFanout)
	e.check(fanout < hashFanout, "fanout %.4f is not below the hash baseline's %.4f", fanout, hashFanout)

	// 1 + shp.Imbalance: largest bucket over the ideal n/k. Reported in
	// this form so it is never 0 and a relative bound means the same as an
	// absolute one on the paper's ε.
	imb := shp.Imbalance(a, k)
	e.set("imbalance", 1+imb)
	e.check(imb <= 0.10, "imbalance %.4f above 0.10", imb)

	cluster, err := shp.NewCluster(k, a, shp.LatencyModel{})
	if err != nil {
		return fmt.Errorf("replay cluster: %w", err)
	}
	r := rng.New(rng.Mix(e.cfg.Seed, 0x6e7)) // the replay's own stream of the seed
	var lat []float64
	d = e.tr.Span("sharding.Replay", func() {
		for len(lat) < int(replayMultiGets*e.cfg.Scale) {
			for q := int32(0); int(q) < g.NumQueries(); q++ {
				if members := g.QueryNeighbors(q); len(members) > 0 {
					_, l := cluster.Query(r, members)
					lat = append(lat, l)
				}
			}
		}
	})
	e.set("multiget_mean_t", stats.Mean(lat))
	e.set("multiget_p99_t", stats.Percentile(lat, 99))
	e.set("sharding.replay_queries_per_s", float64(len(lat))/d.Seconds())
	return nil
}

// HighestPercentile returns the highest of the percentiles 99.9, 99, 95, 90
// and 75 that has at least ten of n samples beyond it, or 50 when none has:
// the tail a timing with n samples may report beside its median.
func HighestPercentile(n int) float64 {
	for _, perMille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-perMille) >= 10*1000 {
			return float64(perMille) / 10
		}
	}
	return 50
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status: %v", sc.Err())
}

// Run runs one workload in this process and returns what it measured. A
// failed output check is reported in the Result, not as an error; an error
// means the workload could not run at all.
func Run(cfg Config, workload string) (*Result, error) {
	w, ok := findWorkload(workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	e := &env{cfg: cfg, tr: NewTracer(w.Name), m: map[string]float64{}, samples: map[string]int{}}
	// One core for the whole run: the reference box measures two busy
	// threads far worse than one (README.md, "Noise floor"), and the speed
	// probe has to share the workload's core.
	if err := onOneCore(func() error {
		e.speed = startSpeedMeter()
		defer e.speed.halt()
		return w.run(e)
	}); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.set("peak_rss_mb", rss-probeTablesMB)
	e.set("bench.stolen_share", stats.Mean(e.stolen))
	e.set("bench.probe_ms", stats.Percentile(e.probes, 50))
	e.set("failed_ops", float64(len(e.failures))/float64(max(e.attempted, 1)))
	declared := map[string]bool{}
	for _, m := range append(LedgerEndToEnd(), PerLayer...) {
		declared[m.Name] = strings.HasPrefix(w.Name, m.On)
	}
	for name := range e.m {
		if !declared[name] {
			return nil, fmt.Errorf("%s measured %s, which spec.go does not declare for it", w.Name, name)
		}
	}

	res := &Result{
		Workload:  w.Name,
		Seed:      cfg.Seed,
		Trace:     cfg.Trace,
		Correct:   len(e.failures) == 0,
		Attempted: e.attempted,
		Failed:    len(e.failures),
		Failures:  e.failures,
		Metrics:   map[string]Value{},
		Samples:   e.samples,
	}
	reported := LedgerEndToEnd()
	if cfg.Trace {
		reported = TracedMetrics()
		res.SelfSeconds = SelfSeconds(e.tr.Spans())
	}
	for _, m := range reported {
		v, measured := e.m[m.Name]
		if on := strings.HasPrefix(w.Name, m.On); on && !measured {
			return nil, fmt.Errorf("%s did not measure %s", w.Name, m.Name)
		} else if !on && !cfg.Trace {
			continue // the ledger keeps a one-workload pairing on its workload only
		}
		res.Metrics[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	if cfg.OutDir != "" {
		if cfg.Trace {
			if err := e.tr.WriteJSONL(filepath.Join(cfg.OutDir, "trace-"+w.Name+".jsonl")); err != nil {
				return nil, err
			}
		}
		if err := writeJSON(resultPath(cfg.OutDir, w.Name, cfg.Trace), res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func resultPath(dir, workload string, trace bool) string {
	pass := "run"
	if trace {
		pass = "traced"
	}
	return filepath.Join(dir, pass+"-"+workload+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Print writes every reported metric by name and unit, the failed checks,
// and as the last line the one JSON object the run contract asks for: the
// end-to-end metrics of BENCHMARK.json untraced, its per-layer metrics
// traced.
func (r *Result) Print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d traced=%v\n", r.Workload, r.Seed, r.Trace)
	for _, name := range names {
		v := r.Metrics[name]
		samples := ""
		if n := r.Samples[name]; n > 0 {
			samples = fmt.Sprintf("  (median of %d)", n)
		}
		fmt.Fprintf(w, "%-38s %16.6g %s%s\n", name, v.Value, v.Unit, samples)
	}
	if len(r.SelfSeconds) > 0 {
		fmt.Fprintln(w, "# traced self time by span")
		var total float64
		spans := make([]string, 0, len(r.SelfSeconds))
		for name, s := range r.SelfSeconds {
			spans = append(spans, name)
			total += s
		}
		sort.Slice(spans, func(i, j int) bool { return r.SelfSeconds[spans[i]] > r.SelfSeconds[spans[j]] })
		for _, name := range spans {
			fmt.Fprintf(w, "%-38s %12.4f s %5.1f %%\n", name, r.SelfSeconds[name], 100*r.SelfSeconds[name]/total)
		}
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}

	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]Value{}}
	contract := EndToEnd
	if r.Trace {
		contract = TracedMetrics()
	}
	for _, m := range contract {
		line.Metrics[m.Name] = r.Metrics[m.Name]
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
