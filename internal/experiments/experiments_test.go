package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/report"
)

// expScale keeps experiment tests fast while staying above the 2-chunk
// capacity floor so oversubscription actually occurs.
const expScale = 0.15

func opts(names ...string) Options {
	return Options{Scale: expScale, Workloads: names}
}

// table renders one table figure.
func table(o Options, name string) *report.Table { return Figures(o, 0, name)[0].Tables[0] }

func TestFig1Shape(t *testing.T) {
	tab := table(opts("backprop", "ra"), "fig1")
	if len(tab.Rows) != 2 || len(tab.Columns) != 3 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// Column 0 is the normalization base.
	for _, r := range tab.Rows {
		if r.Values[0] != 1.0 {
			t.Fatalf("row %s base not 1.0", r.Label)
		}
		if r.Values[1] < 1.0 || r.Values[2] < 1.0 {
			t.Fatalf("row %s: oversubscription sped things up: %v", r.Label, r.Values)
		}
	}
	// Irregular ra must degrade far more than regular backprop at 125%.
	bp := value(t, tab, "backprop", 1)
	ra := value(t, tab, "ra", 1)
	if ra <= bp {
		t.Fatalf("ra (%.2f) not worse than backprop (%.2f) at 125%%", ra, bp)
	}
}

func TestFig2Output(t *testing.T) {
	out := Figures(opts("sssp"), 0, "fig2")[0].Text(false, false)
	for _, frag := range []string{"Figure 2", "edges", "dist", "RO", "RW"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Fig2 missing %q:\n%s", frag, out)
		}
	}
}

func TestFig3Windows(t *testing.T) {
	out := Figures(opts("fdtd"), 64, "fig3")[0].Text(false, false)
	panels := strings.Split(out, "Figure 3 (fdtd, iteration ")
	if len(panels) != 3 || !strings.HasPrefix(panels[1], "2):\n") || !strings.HasPrefix(panels[2], "4):\n") {
		t.Fatalf("want fdtd's iterations 2 and 4:\n%s", out)
	}
	for _, p := range panels[1:] {
		_, csv, _ := strings.Cut(p, "\n")
		if !strings.HasPrefix(csv, "cycle,page,write\n") {
			t.Fatalf("bad header:\n%s", p)
		}
		if strings.Count(csv, "\n") < 3 {
			t.Fatalf("no samples:\n%s", p)
		}
	}
	// Missing iteration yields the empty header.
	o := opts("fdtd").withDefaults()
	if got := fig3Panel(o.run(cellsOf(o.Workloads, traceColumns(o.Base)))[0][0], 99, false); got != "Figure 3 (fdtd, iteration 99):\ncycle,page,write\n\n" {
		t.Fatalf("absent iteration should yield header only, got %q", got)
	}
}

// Fig. 3's panels are sssp's iterations 3 and 5, and iterations 2 and 4
// of a workload the paper does not plot; -plot renders each as a
// scatter of reads and writes.
func TestFig3IterationsAndScatter(t *testing.T) {
	for _, tc := range []struct {
		workload string
		want     []string
	}{
		{"sssp", []string{"sssp iteration 3:", "sssp iteration 5:"}},
		{"bfs", []string{"bfs iteration 2:", "bfs iteration 4:"}},
	} {
		out := Figures(opts(tc.workload), 64, "fig3")[0].Text(false, true)
		if got := strings.Count(out, " iteration "); got != 2 {
			t.Fatalf("%s: %d panels, want 2:\n%s", tc.workload, got, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Fatalf("%s: missing %q:\n%s", tc.workload, w, out)
			}
		}
		if strings.Count(out, "\n") < 2*24 || strings.Contains(out, "cycle,page,write") {
			t.Fatalf("%s: not a scatter:\n%s", tc.workload, out)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	// Regular-app ts insensitivity needs enough chunks of slack to be
	// stable; 0.15 scale leaves only ~2 and is noisy, so this test runs
	// a little larger.
	tab := table(Options{Scale: 0.3, Workloads: []string{"hotspot"}}, "fig4")
	if len(tab.Columns) != 3 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	v := value(t, tab, "hotspot", 0)
	if v != 1.0 {
		t.Fatal("ts=8 column must be the base")
	}
	// Regular apps are insensitive to ts (paper: within ~3% at full
	// scale; the tiny test scale leaves only ~2 chunks of slack, so the
	// tolerance here is wider).
	for c := 1; c < 3; c++ {
		v := value(t, tab, "hotspot", c)
		if v < 0.8 || v > 1.2 {
			t.Fatalf("hotspot sensitive to ts: col %d = %.3f", c, v)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	tab := table(opts("fdtd"), "fig5")
	if len(tab.Columns) != 3 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	adp := value(t, tab, "fdtd", 2)
	if adp < 0.9 || adp > 1.1 {
		t.Fatalf("Adaptive at no-oversub = %.3f, want ~1.0", adp)
	}
}

func TestFig6And7Shapes(t *testing.T) {
	figs := Figures(opts("backprop", "ra"), 0, "fig6", "fig7")
	rt, th := figs[0].Tables[0], figs[1].Tables[0]
	if len(rt.Rows) != 2 || len(th.Rows) != 2 {
		t.Fatal("row counts wrong")
	}
	// Adaptive must beat baseline for ra and not hurt backprop much.
	raRT := value(t, rt, "ra", 3)
	if raRT >= 1.0 {
		t.Fatalf("ra Adaptive runtime ratio = %.3f, want < 1", raRT)
	}
	bpRT := value(t, rt, "backprop", 3)
	if bpRT > 1.15 {
		t.Fatalf("backprop Adaptive runtime ratio = %.3f, want ~1", bpRT)
	}
	// backprop never thrashes: 0/0 = 0 in every column.
	for c := 0; c < 4; c++ {
		v := value(t, th, "backprop", c)
		if v != 0 {
			t.Fatalf("backprop thrash col %d = %.3f, want 0", c, v)
		}
	}
	raTH := value(t, th, "ra", 3)
	if raTH >= 1.0 {
		t.Fatalf("ra Adaptive thrash ratio = %.3f, want < 1", raTH)
	}
}

func TestFig8Shape(t *testing.T) {
	tab := Fig8(opts("ra"))
	if len(tab.Columns) != 5 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	// Larger p must monotonically help ra (paper: strictly linear
	// improvement); allow slack but require p=8 <= p=2 and the giant
	// penalty to be the best or near-best.
	p2 := value(t, tab, "ra", 1)
	p8 := value(t, tab, "ra", 3)
	if p8 > p2 {
		t.Fatalf("ra: p=8 (%.3f) worse than p=2 (%.3f)", p8, p2)
	}
	if p8 >= 1.0 {
		t.Fatalf("ra: p=8 ratio %.3f, want < 1", p8)
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(config.Default())
	for _, frag := range []string{
		"Table I", "28 SMs", "1481 MHz", "4KB", "45us", "Tree", "LRU", "2MB",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table1 missing %q:\n%s", frag, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1.0 || len(o.Workloads) != 8 || o.Base.NumSMs == 0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

// A trace collector observes accesses without changing a simulated
// cycle: on every workload, the characterization cell and an
// oversubscribed Adaptive cell give the same Counters with a collector
// attached, at sampling densities 0, 1 and 256, as without one. This is
// what lets a trace share its untraced twin's grid key (Figs. 2 and 3
// reuse the baseline cell of Figs. 1 and 5).
func TestCollectorChangesNoCounter(t *testing.T) {
	o := Options{Scale: 0.05}.withDefaults()
	for _, w := range o.Workloads {
		for _, col := range []column{traceColumns(o.Base)[0], fig67Columns(o.Base)[3]} {
			col.trace = false
			want := (&simulation{cell: cell{workload: w, column: col}}).simulate(o).Counters
			col.trace = true
			for _, every := range []uint64{0, 1, 256} {
				o.sample = every
				sm := &simulation{cell: cell{workload: w, column: col}}
				if got := sm.simulate(o).Counters; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/%d%%, sampling %d: counters\n%+v\nwant\n%+v", w, col.pol, col.pct, every, got, want)
				}
				tr := sm.collector
				if len(tr.FrequencyByAllocation()) == 0 || (every > 0) != (len(tr.Samples()) > 0) {
					t.Fatalf("%s, sampling %d: the collector saw %d samples and %d allocations", w, every, len(tr.Samples()), len(tr.FrequencyByAllocation()))
				}
			}
		}
	}
}

// value returns column col of tab's row label, failing tb when the
// table has no such row.
func value(tb testing.TB, tab *report.Table, label string, col int) float64 {
	tb.Helper()
	i := slices.IndexFunc(tab.Rows, func(r report.Row) bool { return r.Label == label })
	if i < 0 {
		tb.Fatalf("%s has no row %q", tab.Title, label)
	}
	return tab.Rows[i].Values[col]
}
