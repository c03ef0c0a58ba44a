package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	cfg := Config{Quick: true, Scale: 0.08, Seed: 1, Workers: 2}
	if testing.Short() {
		// Keep the tier-1 `go test -short ./...` loop fast: the same code
		// paths run, just on smaller problem instances.
		cfg.Scale = 0.02
	}
	return cfg
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig2", "fig4a", "fig4b", "table2", "table3",
		"fig5a", "fig5b", "fig6", "fig7", "fig8"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry), len(want))
	}
	for i, id := range want {
		if Registry[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, Registry[i].ID, id)
		}
		if Registry[i].Description == "" || Registry[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("table2"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a ghost")
	}
}

func TestDatasetsBuildAll(t *testing.T) {
	for _, ds := range Datasets {
		g, err := ds.Build(0.05, 1)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if g.NumQueries() == 0 || g.NumData() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: degenerate graph", ds.Name)
		}
		// Pruning holds: no degree-<2 queries.
		for q := 0; q < g.NumQueries(); q++ {
			if g.QueryDegree(int32(q)) < 2 {
				t.Fatalf("%s: query %d has degree %d after pruning", ds.Name, q, g.QueryDegree(int32(q)))
			}
		}
	}
}

func TestDatasetByName(t *testing.T) {
	if _, ok := DatasetByName("soc-LJ"); !ok {
		t.Fatal("soc-LJ missing")
	}
	if _, ok := DatasetByName("no-such"); ok {
		t.Fatal("found nonexistent dataset")
	}
}

func TestDatasetScaleMonotone(t *testing.T) {
	ds, _ := DatasetByName("email-Enron")
	small, err := ds.Build(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := ds.Build(1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumEdges() >= big.NumEdges() {
		t.Fatalf("scale not monotone: %d vs %d edges", small.NumEdges(), big.NumEdges())
	}
}

// runExperiment runs one registry entry in quick mode and returns output.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, quickCfg()); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) < 50 {
		t.Fatalf("%s: suspiciously short output:\n%s", id, out)
	}
	return out
}

func TestTable1Quick(t *testing.T) {
	out := runExperiment(t, "table1")
	if !strings.Contains(out, "email-Enron") {
		t.Fatalf("missing dataset row:\n%s", out)
	}
}

func TestFig2Quick(t *testing.T) {
	out := runExperiment(t, "fig2")
	if !strings.Contains(out, "p=0.5") || !strings.Contains(out, "p=1.0") {
		t.Fatalf("fig2 output incomplete:\n%s", out)
	}
	// The headline numbers must appear: stuck at 2, optimum 4/3 = 1.3333.
	if !strings.Contains(out, "2.0000") || !strings.Contains(out, "1.3333") {
		t.Fatalf("fig2 numbers wrong:\n%s", out)
	}
}

func TestFig4aQuick(t *testing.T) {
	out := runExperiment(t, "fig4a")
	if !strings.Contains(out, "p99") || !strings.Contains(out, "fanout 40 -> 10") {
		t.Fatalf("fig4a output incomplete:\n%s", out)
	}
}

func TestFig4bQuick(t *testing.T) {
	out := runExperiment(t, "fig4b")
	if !strings.Contains(out, "SHP sharding") || !strings.Contains(out, "random sharding") {
		t.Fatalf("fig4b output incomplete:\n%s", out)
	}
}

func TestTable2Quick(t *testing.T) {
	out := runExperiment(t, "table2")
	for _, want := range []string{"k=32", "+% over best", "% below hash"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 missing %q:\n%s", want, out)
		}
	}
	// Raw rows are the ones whose label is a single word (label + quick
	// mode's three k columns); a table opens with SHP-k and SHP-2 and its
	// Hash row closes the comparison.
	var shpRows [][]string
	tables := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		switch f[0] {
		case "SHP-k", "SHP-2":
			shpRows = append(shpRows, f)
		case "Hash":
			if len(shpRows) != 2 {
				t.Fatalf("Hash row follows %d SHP rows, want 2:\n%s", len(shpRows), out)
			}
			for _, row := range shpRows {
				for i := 1; i < len(f); i++ {
					v, err1 := strconv.ParseFloat(row[i], 64)
					h, err2 := strconv.ParseFloat(f[i], 64)
					if err1 != nil || err2 != nil || !(v < h) {
						t.Fatalf("%s cell %d = %s not strictly below Hash %s:\n%s", row[0], i, row[i], f[i], out)
					}
				}
			}
			shpRows = nil
			tables++
		}
	}
	if tables != len(smallDatasets(true)) {
		t.Fatalf("found %d Hash rows, want one per dataset (%d):\n%s", tables, len(smallDatasets(true)), out)
	}
}

func TestTable3Quick(t *testing.T) {
	out := runExperiment(t, "table3")
	if !strings.Contains(out, "total time") {
		t.Fatalf("table3 has no total-time column:\n%s", out)
	}
	for _, banned := range []string{"OOM", "simulated"} {
		if strings.Contains(out, banned) {
			t.Fatalf("table3 still prints %q:\n%s", banned, out)
		}
	}
	// Every row below the rule is one of the two SHP variants, each once
	// per hypergraph: nothing else is measured, so nothing else is printed.
	_, body, ok := strings.Cut(out, "---\n")
	if !ok {
		t.Fatalf("table3 has no header rule:\n%s", out)
	}
	rows := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || (f[1] != "SHP-2" && f[1] != "SHP-k") {
			t.Fatalf("table3 row %q is not an SHP row:\n%s", line, out)
		}
		rows[f[1]]++
	}
	if rows["SHP-2"] == 0 || rows["SHP-2"] != rows["SHP-k"] {
		t.Fatalf("table3 rows %v, want SHP-2 and SHP-k once per hypergraph:\n%s", rows, out)
	}
}

func TestFig5aQuick(t *testing.T) {
	out := runExperiment(t, "fig5a")
	if !strings.Contains(out, "total time") {
		t.Fatalf("fig5a output incomplete:\n%s", out)
	}
}

func TestFig5bQuick(t *testing.T) {
	out := runExperiment(t, "fig5b")
	for _, want := range []string{"machines", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5b missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Quick(t *testing.T) {
	out := runExperiment(t, "fig6")
	if !strings.Contains(out, "p") || !strings.Contains(out, "%") {
		t.Fatalf("fig6 output incomplete:\n%s", out)
	}
}

func TestFig7Quick(t *testing.T) {
	out := runExperiment(t, "fig7")
	for _, want := range []string{"fanout p=0.5", "moved% p=1.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestFig8Quick(t *testing.T) {
	out := runExperiment(t, "fig8")
	for _, want := range []string{"(a) p=1.0 vs p=0.5", "(b) clique-net vs p=0.5", "mean increase"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 missing %q:\n%s", want, out)
		}
	}
}
