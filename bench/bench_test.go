package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"shp"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the spec tables must name the same workloads and
// metrics with the same units, directions and bounds, and README.md must
// mention every one of them.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	declare := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}

	if b.RunSeconds != RunSeconds {
		t.Errorf("run_seconds = %d, RunSeconds = %d", b.RunSeconds, RunSeconds)
	}
	if !slices.Equal(b.Paths, []string{"bench", "cmd/shpbench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in Workloads", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		declare(w.Name)
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in Workloads", i, b.Workloads[i].Name, w.Name)
		}
		if why := b.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, got %d", w.Name, len(why))
		}
	}

	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in EndToEnd", len(b.EndToEnd), len(EndToEnd))
	}
	for i, m := range EndToEnd {
		declare(m.Name)
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end[%d] = %+v, spec has %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.On != "" {
			t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25] and every workload", m.Name)
		}
	}
	traced := TracedMetrics()
	if len(b.PerLayer) != len(traced) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in TracedMetrics", len(b.PerLayer), len(traced))
	}
	for i, m := range traced {
		declare(m.Name)
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer[%d] = %+v, spec has %+v", i, got, m)
		}
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(LedgerEndToEnd(), PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// Every workload, untraced and traced, at a twentieth of its size through
// the Go API: the run's last output line carries exactly the names
// BENCHMARK.json lists for that pass. Run itself fails when a workload
// measures a name the spec does not declare for it, or skips one it does.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	var endToEnd, perLayer []string
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			res, err := Run(Config{Seed: DefaultSeed, Seconds: 0.1, Trace: trace, Scale: 0.05, OutDir: t.TempDir()}, w.Name)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := res.Print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]Value
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s traced=%v: last line: %v", w.Name, trace, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
				t.Errorf("%s traced=%v: last line lacks correct/attempted/failed: %s", w.Name, trace, lines[len(lines)-1])
			}
			var got []string
			for name, v := range line.Metrics {
				got = append(got, name)
				if v.Unit == "" {
					t.Errorf("%s: %s has no unit", w.Name, name)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			slices.Sort(got)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v emitted %v, BENCHMARK.json lists %v", w.Name, trace, got, want)
			}
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "rep", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Name: "read", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, Name: "partition", StartNS: 30, EndNS: 90},
		{ID: 3, Parent: 2, Name: "save", StartNS: 40, EndNS: 50},
		{ID: 4, Parent: 2, Name: "save", StartNS: 45, EndNS: 60}, // overlaps its sibling: counted once
		{ID: 5, Parent: -1, Name: "rep", StartNS: 100, EndNS: 150},
	}
	if got, want := SelfTimes(spans), []int64{20, 20, 40, 10, 15, 50}; !slices.Equal(got, want) {
		t.Errorf("SelfTimes = %v, want %v", got, want)
	}
	byName := SelfSeconds(spans)
	if math.Abs(byName["rep"]-70e-9) > 1e-15 || math.Abs(byName["save"]-25e-9) > 1e-15 {
		t.Errorf("SelfSeconds = %v", byName)
	}
}

func TestTracerRecordsOnlyWhenAsked(t *testing.T) {
	tr := NewTracer("w")
	tr.Span("off", func() {})
	tr.Record(true, 7)
	tr.Span("outer", func() { tr.Span("inner", func() {}) })
	tr.Record(false, 0)
	tr.Span("off", func() {})
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "outer" || spans[1].Parent != spans[0].ID || spans[1].Rep != 7 || spans[1].Workload != "w" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].StartNS > spans[1].StartNS || spans[1].EndNS > spans[0].EndNS {
		t.Errorf("inner span is not inside outer: %+v", spans)
	}
}

func TestHashBaselineBalanced(t *testing.T) {
	for _, k := range []int{16, 32, 128} {
		for _, seed := range []uint64{DefaultSeed, HeldOutSeed} {
			// 2M vertices: a bucket of 16 000 has a binomial σ of 0.8 %.
			if imb := shp.Imbalance(hashAssignment(1<<21, k, seed), k); imb > 0.05 {
				t.Errorf("hash baseline k=%d seed=%d: imbalance %.4f above 5 %%", k, seed, imb)
			}
		}
	}
}

// -check holds exact metrics to equality and the others to their bound;
// -diff reports a change beyond the bound as worse and a pairing whose own
// sets disagree beyond the bound as unresolved.
func TestCheckAndDiff(t *testing.T) {
	set := func(wall, fanout float64) []*Result {
		return []*Result{{Workload: ColdBisectSocial, Metrics: map[string]Value{
			"wall_s": {Value: wall}, "fanout": {Value: fanout},
		}}}
	}
	status := func(rows []pairing) map[string]string {
		out := map[string]string{}
		for _, p := range rows {
			out[p.metric.Name] = p.status
		}
		return out
	}
	got := status(compare(&Ledger{Sets: [][]*Result{set(1.00, 4.5)}}, &Ledger{Sets: [][]*Result{set(1.05, 4.5)}}, true))
	if got["wall_s"] != "ok" || got["fanout"] != "ok" {
		t.Errorf("sets that agree: %v", got)
	}
	got = status(compare(&Ledger{Sets: [][]*Result{set(1.00, 4.5)}}, &Ledger{Sets: [][]*Result{set(1.40, 4.5001)}}, true))
	if got["wall_s"] != "unresolved" || got["fanout"] != "unresolved" {
		t.Errorf("sets that disagree: %v", got)
	}
	old := &Ledger{Sets: [][]*Result{set(1.00, 4.5), set(1.02, 4.5)}}
	got = status(compare(old, &Ledger{Sets: [][]*Result{set(1.50, 4.4), set(1.52, 4.4)}}, false))
	if got["wall_s"] != "worse" || got["fanout"] != "ok" {
		t.Errorf("a slower change: %v", got)
	}
	got = status(compare(old, &Ledger{Sets: [][]*Result{set(0.8, 4.5), set(1.3, 4.5)}}, false))
	if got["wall_s"] != "unresolved" {
		t.Errorf("a noisy change: %v", got)
	}
}
