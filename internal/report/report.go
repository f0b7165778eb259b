// Package report renders the paper's tables and figures as text and CSV:
// aligned ASCII tables for terminals and comma-separated values for
// downstream plotting. Every renderer takes the analysis results as input
// and writes to an io.Writer, so the cmd tools and tests share one
// implementation.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mobilebench/internal/cluster"
	"mobilebench/internal/core"
	"mobilebench/internal/soc"
	"mobilebench/internal/subset"
)

// Table is a generic aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	total := len(t.Headers)*2 - 2
	for _, width := range widths {
		total += width
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Headers, ",")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Figure1 renders the aggregate-metrics table (the data behind Figure 1).
func Figure1(d *core.Dataset) *Table {
	rows, avg := d.Figure1()
	t := &Table{
		Title:   "Figure 1 — benchmark metrics (dashed line = average)",
		Headers: []string{"benchmark", "group", "IC (B)", "IPC", "cache MPKI", "branch MPKI", "runtime (s)"},
	}
	add := func(r core.Figure1Row, group string) {
		t.Add(r.Name, group,
			fmt.Sprintf("%.2f", r.IC/1e9),
			fmt.Sprintf("%.2f", r.IPC),
			fmt.Sprintf("%.1f", r.CacheMPKI),
			fmt.Sprintf("%.1f", r.BranchMPKI),
			fmt.Sprintf("%.1f", r.RuntimeSec))
	}
	for _, r := range rows {
		add(r, fmt.Sprintf("C%d", r.Group))
	}
	add(avg, "-")
	return t
}

// TableIII renders the metric correlation matrix.
func TableIII(d *core.Dataset) *Table {
	c := d.TableIII()
	t := &Table{
		Title:   "Table III — correlation values between metrics (Pearson)",
		Headers: append([]string{""}, c.Metrics...),
	}
	for i, m := range c.Metrics {
		row := []string{m}
		for j := range c.Metrics {
			if j > i {
				row = append(row, "")
				continue
			}
			row = append(row, fmt.Sprintf("%.3f", c.R[i][j]))
		}
		t.Add(row...)
	}
	return t
}

// Sparkline renders values as a unicode mini-chart (for Figure 2 panels).
func Sparkline(values []float64, lo, hi float64) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(levels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}

// Figure2 renders each benchmark's six normalized temporal profiles as
// sparklines with their means.
func Figure2(d *core.Dataset, samples int) (string, error) {
	profiles, err := d.Figure2(samples)
	if err != nil {
		return "", err
	}
	metrics := core.TableIV()
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 2 — normalized metric values across normalized runtime")
	for _, p := range profiles {
		fmt.Fprintf(&b, "\n%s\n", p.Name)
		for _, m := range metrics {
			s := p.Series[m.Key]
			fmt.Fprintf(&b, "  %-15s %s  mean=%.2f high>0.5: %d region(s)\n",
				m.Label, Sparkline(s.Values, 0, 1), p.Mean[m.Key], len(p.HighRegions[m.Key]))
		}
	}
	return b.String(), nil
}

// Figure3 renders the per-cluster load-level occupancy per benchmark.
func Figure3(d *core.Dataset) (*Table, error) {
	profiles, err := d.Figure3()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 3 — CPU core cluster load-level occupancy (% of runtime)",
		Headers: []string{"benchmark", "cluster", "0-25%", "25-50%", "50-75%", "75-100%"},
	}
	for _, p := range profiles {
		for _, k := range soc.Clusters() {
			t.Add(p.Name, k.String(),
				fmt.Sprintf("%.0f%%", p.LevelFrac[k][0]*100),
				fmt.Sprintf("%.0f%%", p.LevelFrac[k][1]*100),
				fmt.Sprintf("%.0f%%", p.LevelFrac[k][2]*100),
				fmt.Sprintf("%.0f%%", p.LevelFrac[k][3]*100))
		}
	}
	return t, nil
}

// TableV renders the average load-level occupancy per cluster.
func TableV(d *core.Dataset) (*Table, error) {
	avg, err := d.TableV()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table V — % of execution time spent by CPU clusters in load levels",
		Headers: []string{"CPU cluster", "0%-25%", "25%-50%", "50%-75%", "75%-100%"},
	}
	for _, k := range soc.Clusters() {
		t.Add(k.String(),
			fmt.Sprintf("%.0f%%", avg[k][0]*100),
			fmt.Sprintf("%.0f%%", avg[k][1]*100),
			fmt.Sprintf("%.0f%%", avg[k][2]*100),
			fmt.Sprintf("%.0f%%", avg[k][3]*100))
	}
	return t, nil
}

// Figure4 renders the cluster-count validation sweep.
func Figure4(scores []cluster.Scores) *Table {
	t := &Table{
		Title:   "Figure 4 — cluster-count validation (Dunn/Silhouette higher better; APN/AD lower better)",
		Headers: []string{"algorithm", "k", "Dunn", "Silhouette", "APN", "AD"},
	}
	for _, s := range scores {
		t.Add(s.Algorithm, fmt.Sprintf("%d", s.K),
			fmt.Sprintf("%.3f", s.Dunn),
			fmt.Sprintf("%.3f", s.Silhouette),
			fmt.Sprintf("%.3f", s.APN),
			fmt.Sprintf("%.3f", s.AD))
	}
	return t
}

// Clusters renders a clustering's groups.
func Clusters(c core.Clustering) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Clustering (%s, k=%d)", c.Algorithm, c.K),
		Headers: []string{"cluster", "members"},
	}
	for id, g := range c.Groups {
		members := append([]string(nil), g...)
		sort.Strings(members)
		t.Add(fmt.Sprintf("C%d", id), strings.Join(members, ", "))
	}
	return t
}

// Dendrogram renders a hierarchical merge tree as indented text.
func Dendrogram(den *cluster.Dendrogram, names []string) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5 — hierarchical clustering dendrogram (merge order)")
	for i, m := range den.Merges {
		fmt.Fprintf(&b, "  step %2d  h=%.3f  %s + %s\n",
			i+1, m.Height, nodeName(m.A, den.N, names), nodeName(m.B, den.N, names))
	}
	return b.String()
}

func nodeName(id, n int, names []string) string {
	if id < n {
		if id < len(names) {
			return names[id]
		}
		return fmt.Sprintf("leaf%d", id)
	}
	return fmt.Sprintf("node%d", id-n+1)
}

// TableVI renders subset runtimes and reductions.
func TableVI(d *core.Dataset, reds []subset.Reduction) *Table {
	t := &Table{
		Title:   "Table VI — running times and reductions for the proposed subsets",
		Headers: []string{"set", "running time (s)", "reduction", "members"},
	}
	t.Add("Original", fmt.Sprintf("%.1f", d.TotalRuntimeSec()), "-", fmt.Sprintf("%d benchmarks", len(d.Units)))
	for _, r := range reds {
		t.Add(r.Set.Name, fmt.Sprintf("%.1f", r.RuntimeSec),
			fmt.Sprintf("%.2f%%", r.ReductionFrac*100),
			strings.Join(r.Set.Members, ", "))
	}
	return t
}

// Figure7 renders the subset growth curves.
func Figure7(curves map[string][]subset.CurvePoint) *Table {
	t := &Table{
		Title:   "Figure 7 — total minimum Euclidean distance as subsets grow",
		Headers: []string{"set", "n", "added", "distance"},
	}
	names := make([]string, 0, len(curves))
	for n := range curves {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, p := range curves[n] {
			t.Add(n, fmt.Sprintf("%d", p.N), p.Added, fmt.Sprintf("%.2f", p.Distance))
		}
	}
	return t
}

// Observations renders the observation checks.
func Observations(obs []core.Observation) *Table {
	t := &Table{
		Title:   "Section V observations",
		Headers: []string{"status", "id", "observation", "detail"},
	}
	for _, o := range obs {
		status := "PASS"
		if !o.Holds {
			status = "FAIL"
		}
		id := "-"
		if o.ID > 0 {
			id = fmt.Sprintf("#%d", o.ID)
		}
		t.Add(status, id, o.Title, o.Detail)
	}
	return t
}

// WriteReport writes the full characterization report: Figure 1, Table
// III, Table V, Table VI and the observation checks.
func WriteReport(w io.Writer, d *core.Dataset) error {
	t5, err := TableV(d)
	if err != nil {
		return err
	}
	reds, err := d.TableVI()
	if err != nil {
		return err
	}
	obs, err := d.Observations()
	if err != nil {
		return err
	}
	return writeSections(w, Figure1(d).Write, TableIII(d).Write, t5.Write,
		TableVI(d, reds).Write, Observations(obs).Write)
}

// WriteSweep writes the Figure 4 sweep and the cluster count it selects.
func WriteSweep(w io.Writer, scores []cluster.Scores) error {
	return writeSections(w, Figure4(scores).Write,
		text("optimal number of clusters: %d\n", cluster.BestK(scores)))
}

// WriteSubsets writes Table VI and the benchmarks with the highest average
// GPU and AIE loads.
func WriteSubsets(w io.Writer, d *core.Dataset) error {
	reds, err := d.TableVI()
	if err != nil {
		return err
	}
	gpuName, gpuLoad := d.HighestAvgGPULoad()
	aieName, aieLoad := d.HighestAvgAIELoad()
	return writeSections(w, TableVI(d, reds).Write,
		text("highest average GPU load: %s (%.2f)\nhighest average AIE load: %s (%.2f)\n",
			gpuName, gpuLoad, aieName, aieLoad))
}

// WriteAnalysis writes the downstream analyses a calibration is reviewed
// by: Table III, the three k=5 clusterings and whether they agree, the
// Figure 4 sweep (WriteSweep), Table V, Table VI (WriteSubsets), Figure 7
// and the observation checks.
func WriteAnalysis(w io.Writer, d *core.Dataset) error {
	const k = 5
	agree, cs, err := d.AgreementAcrossAlgorithms(k)
	if err != nil {
		return err
	}
	scores, err := d.Figure4(2, 9)
	if err != nil {
		return err
	}
	t5, err := TableV(d)
	if err != nil {
		return err
	}
	curves, err := d.Figure7()
	if err != nil {
		return err
	}
	obs, err := d.Observations()
	if err != nil {
		return err
	}
	sections := []section{TableIII(d).Write, text("all algorithms agree at k=%d: %v\n", k, agree)}
	for _, c := range cs {
		sections = append(sections, Clusters(c).Write)
	}
	return writeSections(w, append(sections,
		func(w io.Writer) error { return WriteSweep(w, scores) },
		t5.Write,
		func(w io.Writer) error { return WriteSubsets(w, d) },
		Figure7(curves).Write, Observations(obs).Write)...)
}

// A section is one block of a multi-section report.
type section func(io.Writer) error

// text is a section of preformatted lines.
func text(format string, args ...any) section {
	return func(w io.Writer) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
}

// writeSections writes the sections with a blank line between them.
func writeSections(w io.Writer, sections ...section) error {
	for i, s := range sections {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := s(w); err != nil {
			return err
		}
	}
	return nil
}
