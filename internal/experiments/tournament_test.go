package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uvmsim/internal/resultio"
)

// smallTournament is the cheapest meaningful tournament: two planners
// over two workloads at a tiny scale.
func smallTournament() *TournamentResult {
	return Tournament(TournamentOptions{
		Options:  Options{Scale: 0.05, Workloads: []string{"bfs", "ra"}},
		Planners: []string{"threshold", "reuse-dist"},
	})
}

func TestTournamentLeaderboardShape(t *testing.T) {
	r := smallTournament()
	if len(r.Entries) != 2 {
		t.Fatalf("want 2 entries, got %d", len(r.Entries))
	}
	if r.OversubPercent != 125 || r.Scale != 0.05 {
		t.Fatalf("defaults not applied: %+v", r)
	}
	for i, e := range r.Entries {
		if len(e.WorkloadCycles) != len(r.Workloads) {
			t.Fatalf("entry %d has %d workload cycles for %d workloads", i, len(e.WorkloadCycles), len(r.Workloads))
		}
		var sum uint64
		for _, c := range e.WorkloadCycles {
			if c == 0 {
				t.Fatalf("entry %q has a zero-cycle workload", e.Name())
			}
			sum += c
		}
		if sum != e.TotalCycles {
			t.Fatalf("entry %q total %d != workload sum %d", e.Name(), e.TotalCycles, sum)
		}
		if i > 0 && r.Entries[i-1].TotalCycles > e.TotalCycles {
			t.Fatalf("leaderboard not sorted at entry %d", i)
		}
	}
}

// TestTournamentDeterministic pins the leaderboard contract the
// committed BENCH_tournament.json relies on: back-to-back tournaments
// (including a parallel sweep) must produce identical CSVs byte for
// byte.
func TestTournamentDeterministic(t *testing.T) {
	a := smallTournament().CSV()
	b := Tournament(TournamentOptions{
		Options:  Options{Scale: 0.05, Workloads: []string{"bfs", "ra"}, Workers: 4},
		Planners: []string{"threshold", "reuse-dist"},
	}).CSV()
	if a != b {
		t.Fatalf("tournament CSVs differ across runs:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestTournamentLearnedBeatsStaticAdaptive is the headline acceptance
// claim: under real oversubscription pressure, the reuse-distance
// planner must beat the paper's static Adaptive threshold scheme on
// total simulated cycles for the irregular workloads (ra, sssp). Scale
// 0.3 because WithOversubscription's 2-chunk device-memory floor erases
// eviction pressure at smaller scales (see DESIGN.md §13).
func TestTournamentLearnedBeatsStaticAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tournament at scale 0.3")
	}
	r := Tournament(TournamentOptions{
		Options:  Options{Scale: 0.3, Workloads: []string{"ra", "sssp"}},
		Planners: []string{"threshold", "reuse-dist"},
	})
	byName := map[string]TournamentEntry{}
	for _, e := range r.Entries {
		byName[e.Planner] = e
	}
	learned, static := byName["reuse-dist"], byName["threshold"]
	if learned.TotalCycles >= static.TotalCycles {
		t.Fatalf("reuse-dist (%d cycles) does not beat static threshold (%d cycles)",
			learned.TotalCycles, static.TotalCycles)
	}
}

func TestTournamentTableAndCSV(t *testing.T) {
	r := smallTournament()
	tab := r.Table()
	wantCols := len(r.Workloads) + 1
	if len(tab.Columns) != wantCols || tab.Columns[wantCols-1] != "total" {
		t.Fatalf("table columns = %v", tab.Columns)
	}
	rendered := tab.Format()
	for _, e := range r.Entries {
		if !strings.Contains(rendered, e.Name()) {
			t.Fatalf("table missing entry %q:\n%s", e.Name(), rendered)
		}
	}
	csv := r.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(r.Entries) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(r.Entries), csv)
	}
	if !strings.HasPrefix(lines[0], "rank,combination,bfs,ra,total") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") {
		t.Fatalf("first data row not rank 1: %q", lines[1])
	}
}

func TestTournamentSuiteConversionValidates(t *testing.T) {
	r := smallTournament()
	s := r.Suite()
	s.GoVersion = "go-test"
	var buf strings.Builder
	if err := resultio.WriteTournamentSuite(&buf, s); err != nil {
		t.Fatal(err)
	}
	var got resultio.TournamentSuite
	if err := resultio.DecodeStrict(strings.NewReader(buf.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != resultio.TournamentFormatVersion || len(got.Entries) != len(r.Entries) {
		t.Fatalf("suite = %+v", got)
	}
	for i, e := range got.Entries {
		if e.Name != r.Entries[i].Name() || e.TotalSimCycles != r.Entries[i].TotalCycles ||
			len(e.WorkloadCycles) != len(got.Workloads) {
			t.Fatalf("entry %d = %+v, want %q with %d cycles", i, e, r.Entries[i].Name(), r.Entries[i].TotalCycles)
		}
	}
}

// TestCommittedTournamentRetainsOnlyWinningStages is the stage-retention
// rule over the committed leaderboard: a non-default stage stays only if
// it beats static threshold by at least 1% on some workload. A stage's
// solo entry runs it with the built-in stage of the other kind: every
// default-field planner with the built-in governor, and the bandit-pf
// governor under threshold. A stage that fails is deleted, not exempted.
func TestCommittedTournamentRetainsOnlyWinningStages(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "BENCH_tournament.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var suite resultio.TournamentSuite
	if err := resultio.DecodeStrict(f, &suite); err != nil {
		t.Fatalf("BENCH_tournament.json: %v", err)
	}
	type stage struct{ planner, prefetcher string }
	entries := map[stage]resultio.TournamentEntry{}
	for _, e := range suite.Entries {
		if len(e.WorkloadCycles) != len(suite.Workloads) {
			t.Fatalf("%s has %d workload cycles for %d workloads", e.Name, len(e.WorkloadCycles), len(suite.Workloads))
		}
		entries[stage{e.Planner, e.Prefetcher}] = e
	}
	base, ok := entries[stage{"threshold", ""}]
	if !ok {
		t.Fatal("BENCH_tournament.json has no planner=threshold entry")
	}
	var stages []stage
	for _, p := range DefaultTournamentPlanners() {
		if p != "threshold" {
			stages = append(stages, stage{p, ""})
		}
	}
	stages = append(stages, stage{"threshold", "bandit-pf"})
	for _, st := range stages {
		solo, ok := entries[st]
		if !ok {
			t.Errorf("BENCH_tournament.json has no solo entry for planner=%q prefetcher=%q (rerun make tournament)", st.planner, st.prefetcher)
			continue
		}
		wins := false
		for i, c := range solo.WorkloadCycles {
			wins = wins || 100*c <= 99*base.WorkloadCycles[i]
		}
		if !wins {
			t.Errorf("%s beats planner=threshold by 1%% on no workload (cycles %v against %v): delete the stage",
				solo.Name, solo.WorkloadCycles, base.WorkloadCycles)
		}
	}
}
