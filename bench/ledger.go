package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"shp/internal/stats"
)

// Machine is where a ledger's numbers were measured. A number without it is
// not comparable with anything.
type Machine struct {
	GitSHA     string `json:"git_sha"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

// Ledger is the result file of a full run and the format of the committed
// bench/ledger/BENCH_*.json entries: the machine, the seed and sizes, one
// untraced Result per workload for each set of runs (two sets under
// -check), and one traced Result per workload with the per-layer numbers.
type Ledger struct {
	Machine     Machine           `json:"machine"`
	Seed        uint64            `json:"seed"`
	HeldOutSeed uint64            `json:"held_out_seed"`
	Seconds     float64           `json:"seconds"`
	Sizes       map[string]string `json:"sizes"`
	Sets        [][]*Result       `json:"sets"`
	Traced      []*Result         `json:"traced"`
}

func thisMachine() Machine {
	m := Machine{
		GitSHA:     "unknown",
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.GitSHA = strings.TrimSpace(string(out))
		if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
			m.GitSHA += "+uncommitted"
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return m
}

// runChild runs one workload in a child process of this same binary, so
// that peak RSS and GC state are per workload, and reads back the Result
// the child wrote. A child that fails an output check still leaves its
// Result; a child that leaves none is an error.
func runChild(cfg Config, workload string, stdout, stderr io.Writer) (*Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := resultPath(cfg.OutDir, workload, cfg.Trace)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds), "-trace", trace)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s left no result (%v): %w", workload, runErr, err)
	}
	res := new(Result)
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// collect runs sets untraced sets of the named workloads and then one
// traced pass, each workload in its own child process.
func collect(cfg Config, workloads []string, sets int, stdout, stderr io.Writer) (*Ledger, error) {
	l := &Ledger{Machine: thisMachine(), Seed: cfg.Seed, HeldOutSeed: HeldOutSeed, Seconds: cfg.Seconds, Sizes: map[string]string{}}
	for _, name := range workloads {
		w, _ := findWorkload(name)
		l.Sizes[name] = w.Sizes
	}
	for pass := 0; pass <= sets; pass++ {
		cfg.Trace = pass == sets
		var results []*Result
		for _, name := range workloads {
			res, err := runChild(cfg, name, stdout, stderr)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		if cfg.Trace {
			l.Traced = results
		} else {
			l.Sets = append(l.Sets, results)
		}
	}
	return l, nil
}

// failedChecks counts failed output checks over every run in the ledger.
func (l *Ledger) failedChecks() int {
	n := 0
	for _, set := range append(l.Sets, l.Traced) {
		for _, r := range set {
			n += r.Failed
		}
	}
	return n
}

// values returns one value per set of an end-to-end pairing.
func (l *Ledger) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range l.Sets {
		for _, r := range set {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// pairing is one row of a -check or -diff table.
type pairing struct {
	workload string
	metric   Metric
	old, new float64
	// spread is the run-to-run distance as a share of the median: between
	// the two sets under -check, within each file's own sets under -diff.
	spread float64
	// change is new against old as a share of old, positive when worse.
	change float64
	status string
}

func relSpread(vs ...float64) float64 {
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	if mid := stats.Percentile(vs, 50); mid != 0 {
		return (hi - lo) / math.Abs(mid)
	}
	return hi - lo
}

// compare lists every end-to-end pairing both ledgers measured, by the
// medians of their sets.
//
// With sameCode the two ledgers are two sets of one -check: every pairing
// must agree within its bound, the exact ones exactly, and one that does
// not is unresolved — the benchmark cannot tell a regression of that size
// from its own noise. Otherwise they are two ledger files: a pairing is
// worse when the new median is worse than the old by more than the bound,
// and unresolved, not unchanged, when either file's own sets are further
// apart than the bound.
func compare(old, new *Ledger, sameCode bool) []pairing {
	var out []pairing
	for _, w := range Workloads {
		for _, m := range LedgerEndToEnd() {
			oldVs, newVs := old.values(w.Name, m.Name), new.values(w.Name, m.Name)
			if len(oldVs) == 0 || len(newVs) == 0 {
				continue
			}
			p := pairing{workload: w.Name, metric: m, old: stats.Percentile(oldVs, 50), new: stats.Percentile(newVs, 50), status: "ok"}
			p.change = p.new - p.old
			if p.old != 0 {
				p.change /= math.Abs(p.old)
			}
			if m.Better == "higher" {
				p.change = -p.change
			}
			if sameCode {
				p.spread = relSpread(p.old, p.new)
				if p.spread > m.Bound || (m.Exact && p.old != p.new) {
					p.status = "unresolved"
				}
			} else if p.spread = max(relSpread(oldVs...), relSpread(newVs...)); p.spread > m.Bound {
				p.status = "unresolved"
			} else if p.change > m.Bound {
				p.status = "worse"
			}
			out = append(out, p)
		}
	}
	return out
}

// printPairings prints the table and returns how many rows are not ok.
func printPairings(w io.Writer, rows []pairing, sameCode bool) int {
	oldName, newName := "old", "new"
	if sameCode {
		oldName, newName = "set 1", "set 2"
	}
	bad := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", oldName, newName, "change", "spread", "bound", "status")
	for _, p := range rows {
		bound := fmt.Sprintf("%.1f%%", 100*p.metric.Bound)
		if p.metric.Exact && sameCode {
			bound = "exact"
		}
		fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %+8.2f%% %8.2f%% %7s  %s\n",
			p.workload, p.metric.Name, p.old, p.new, 100*p.change, 100*p.spread, bound, p.status)
		if p.status != "ok" {
			bad++
		}
	}
	return bad
}

// printLedger prints one set as a table, one column per workload, then the
// traced pass's per-layer metrics the same way.
func printLedger(w io.Writer, l *Ledger) {
	table := func(title string, metrics []Metric, results []*Result) {
		fmt.Fprintf(w, "\n%-38s %-8s", title, "unit")
		for _, r := range results {
			fmt.Fprintf(w, " %18s", r.Workload)
		}
		fmt.Fprintln(w)
		for _, m := range metrics {
			fmt.Fprintf(w, "%-38s %-8s", m.Name, m.Unit)
			for _, r := range results {
				if strings.HasPrefix(r.Workload, m.On) {
					fmt.Fprintf(w, " %18.6g", r.Metrics[m.Name].Value)
				} else {
					fmt.Fprintf(w, " %18s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	for i, set := range l.Sets {
		table(fmt.Sprintf("end to end, set %d (seed %d)", i+1, l.Seed), LedgerEndToEnd(), set)
	}
	table("per layer (traced pass)", PerLayer, l.Traced)
}

func readLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := new(Ledger)
	if err := json.Unmarshal(data, l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}
