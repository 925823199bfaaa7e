package resultio

import (
	"bytes"
	"testing"
)

func sampleTournamentSuite() *TournamentSuite {
	return &TournamentSuite{
		Version:        TournamentFormatVersion,
		GoVersion:      "go1.23.0",
		Scale:          0.3,
		OversubPercent: 125,
		Workloads:      []string{"bfs", "ra"},
		Entries: []TournamentEntry{
			{
				Name: "planner=thrash-guard", Planner: "thrash-guard",
				TotalSimCycles: 100, WorkloadCycles: []uint64{40, 60},
				FarFaults: 7, ThrashedPages: 3, RemoteAccesses: 11,
			},
			{
				Name: "planner=threshold", Planner: "threshold",
				TotalSimCycles: 150, WorkloadCycles: []uint64{70, 80},
				FarFaults: 9, ThrashedPages: 5, RemoteAccesses: 13,
			},
		},
	}
}

func TestTournamentSuiteRoundTrip(t *testing.T) {
	want := sampleTournamentSuite()
	var buf bytes.Buffer
	if err := WriteTournamentSuite(&buf, want); err != nil {
		t.Fatal(err)
	}
	got := new(TournamentSuite)
	if err := DecodeStrict(&buf, got); err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Scale != want.Scale ||
		got.OversubPercent != want.OversubPercent || len(got.Entries) != len(want.Entries) {
		t.Fatalf("round trip changed suite header: %+v", got)
	}
	for i := range want.Entries {
		w, g := want.Entries[i], got.Entries[i]
		if g.Name != w.Name || g.TotalSimCycles != w.TotalSimCycles ||
			g.FarFaults != w.FarFaults || g.ThrashedPages != w.ThrashedPages ||
			g.RemoteAccesses != w.RemoteAccesses || len(g.WorkloadCycles) != len(w.WorkloadCycles) {
			t.Fatalf("entry %d changed in round trip:\nwant %+v\ngot  %+v", i, w, g)
		}
	}
}

func TestWriteTournamentSuiteDefaultsVersion(t *testing.T) {
	s := sampleTournamentSuite()
	s.Version = 0
	var buf bytes.Buffer
	if err := WriteTournamentSuite(&buf, s); err != nil {
		t.Fatal(err)
	}
	var got TournamentSuite
	if err := DecodeStrict(&buf, &got); err != nil || got.Version != TournamentFormatVersion {
		t.Fatalf("version was not defaulted on write: %d, %v", got.Version, err)
	}
}
