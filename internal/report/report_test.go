package report

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mobilebench/internal/cluster"
	"mobilebench/internal/core"
	"mobilebench/internal/sim"
	"mobilebench/internal/subset"
	"mobilebench/internal/workload"
)

// The report tests need only a small dataset; two units at one run keep
// them fast while exercising every renderer.
var (
	dsOnce sync.Once
	dsVal  *core.Dataset
	dsErr  error
)

func smallDataset(t *testing.T) *core.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		units := []workload.Workload{workload.WildLife(), workload.PCMarkStorage()}
		dsVal, dsErr = core.Collect(core.Options{Sim: sim.Config{}, Runs: 1, Units: units})
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tbl.Add("short", "1")
	tbl.Add("a-much-longer-name", "22")
	var b strings.Builder
	if err := tbl.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "a-much-longer-name") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"a", "b"}}
	tbl.Add("1", "2")
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", b.String())
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 0.5, 1}, 0, 1)
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline runes = %d", len([]rune(s)))
	}
	if Sparkline(nil, 0, 1) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{5, 5}, 5, 5)
	if len([]rune(flat)) != 2 {
		t.Fatal("degenerate bounds should still render")
	}
}

func TestFigure1Report(t *testing.T) {
	d := smallDataset(t)
	tbl := Figure1(d)
	if len(tbl.Rows) != 3 { // 2 benchmarks + average
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var b strings.Builder
	if err := tbl.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "3DMark Wild Life") {
		t.Fatal("benchmark missing from Figure 1 table")
	}
}

func TestTableIIIReport(t *testing.T) {
	d := smallDataset(t)
	tbl := TableIII(d)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFigure2Report(t *testing.T) {
	d := smallDataset(t)
	out, err := Figure2(d, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CPU Load") || !strings.Contains(out, "PCMark Storage") {
		t.Fatalf("figure 2 output incomplete:\n%s", out)
	}
}

func TestFigure3AndTableVReports(t *testing.T) {
	d := smallDataset(t)
	f3, err := Figure3(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Rows) != 6 { // 2 benchmarks x 3 clusters
		t.Fatalf("figure 3 rows = %d", len(f3.Rows))
	}
	t5, err := TableV(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 3 {
		t.Fatalf("table V rows = %d", len(t5.Rows))
	}
}

func TestClusterReports(t *testing.T) {
	d := smallDataset(t)
	c, err := d.Figure6()
	if err != nil {
		// Only 2 units; ask for 2 clusters instead.
		c2, err2 := d.ClusterWith(core.Algorithms()[0], 2)
		if err2 != nil {
			t.Fatal(err, err2)
		}
		c = c2
	}
	tbl := Clusters(c)
	if len(tbl.Rows) == 0 {
		t.Fatal("no cluster rows")
	}
}

func TestDendrogramReport(t *testing.T) {
	h := cluster.NewHierarchical()
	rows := [][]float64{{0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}}
	den, err := h.Dendrogram(rows)
	if err != nil {
		t.Fatal(err)
	}
	out := Dendrogram(den, []string{"a", "b", "c", "d"})
	if !strings.Contains(out, "a + b") && !strings.Contains(out, "b + a") {
		t.Fatalf("dendrogram should merge the close pair first:\n%s", out)
	}
	if !strings.Contains(out, "node") {
		t.Fatalf("dendrogram should reference internal nodes:\n%s", out)
	}
}

func TestFigure7AndTableVIReports(t *testing.T) {
	d := smallDataset(t)
	bs := d.SubsetBenchmarks()
	set := subset.Set{Name: "demo", Members: []string{bs[0].Name}}
	curve, err := subset.GrowthCurveContext(context.Background(), bs, set, 1)
	if err != nil {
		t.Fatal(err)
	}
	f7 := Figure7(map[string][]subset.CurvePoint{"demo": curve})
	if len(f7.Rows) != len(bs) {
		t.Fatalf("figure 7 rows = %d", len(f7.Rows))
	}
	reds, err := subset.Reductions(bs, []subset.Set{set})
	if err != nil {
		t.Fatal(err)
	}
	t6 := TableVI(d, reds)
	if len(t6.Rows) != 2 { // original + demo
		t.Fatalf("table VI rows = %d", len(t6.Rows))
	}
}

func TestObservationsReport(t *testing.T) {
	obs := []core.Observation{
		{ID: 1, Title: "x", Detail: "d", Holds: true},
		{Title: "extra", Detail: "d2", Holds: false},
	}
	tbl := Observations(obs)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "PASS" || tbl.Rows[1][0] != "FAIL" {
		t.Fatalf("statuses = %v %v", tbl.Rows[0][0], tbl.Rows[1][0])
	}
	if tbl.Rows[1][1] != "-" {
		t.Fatal("unnumbered observation should show -")
	}
}
