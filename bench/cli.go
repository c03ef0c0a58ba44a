package bench

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// RunSeconds is how long one run's timed region lasts; BENCHMARK.json's
// run_seconds. The driver passes it as --seconds; it is not a knob.
const RunSeconds = 24

// outDir is where runs leave their result JSON, traces and checkpoint
// directories, relative to the repository root the command runs from. The
// root .gitignore lists it.
const outDir = "bench/out"

// Main is cmd/shpbench: it parses args, runs, and returns the exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "comma-separated workloads to run (default: all four)")
	seed := fs.Uint64("seed", DefaultSeed, "seed of every generator, churn stream, baseline and replay")
	seconds := fs.Float64("seconds", RunSeconds, "length of the timed region (set by the driver)")
	trace := fs.Int("trace", 0, "with one -workload: 1 runs the traced pass in this process")
	check := fs.Bool("check", false, "run two sets back to back; fail unless they agree within the bounds")
	diff := fs.Bool("diff", false, "compare two ledger files: -diff old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "shpbench:", err)
		return 1
	}

	if *diff {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-diff takes two ledger files"))
		}
		old, err := readLedger(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		new, err := readLedger(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if bad := printPairings(stdout, compare(old, new, false), false); bad > 0 {
			return fail(fmt.Errorf("%d pairings worse or unresolved", bad))
		}
		return 0
	}

	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	if *workload != "" {
		names = strings.Split(*workload, ",")
		for _, name := range names {
			if _, ok := findWorkload(name); !ok {
				return fail(fmt.Errorf("unknown workload %q", name))
			}
		}
	}
	cfg := Config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: 1, OutDir: outDir}

	// One named workload runs here: this is the run contract's entry point
	// and what the full run starts once per workload.
	if len(names) == 1 && !*check {
		res, err := Run(cfg, names[0])
		if err != nil {
			return fail(err)
		}
		if err := res.Print(stdout); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	sets, file := 1, "result.json"
	if *check {
		sets, file = 2, "check.json"
	}
	l, err := collect(cfg, names, sets, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	printLedger(stdout, l)
	path := filepath.Join(outDir, file)
	if err := writeJSON(path, l); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nwrote %s; traces are %s\n", path, filepath.Join(outDir, "trace-<workload>.jsonl"))
	if *check {
		fmt.Fprintln(stdout)
		if bad := printPairings(stdout, compare(&Ledger{Sets: l.Sets[:1]}, &Ledger{Sets: l.Sets[1:]}, true), true); bad > 0 {
			return fail(fmt.Errorf("%d pairings unresolved: the two sets disagree beyond the bound", bad))
		}
	}
	if n := l.failedChecks(); n > 0 {
		return fail(fmt.Errorf("%d output checks failed", n))
	}
	return 0
}
