package resultio

import (
	"bytes"
	"strings"
	"testing"
)

func sampleCellEntry(t *testing.T) *CellEntry {
	t.Helper()
	rec := FromResult(sampleResult(t), 0.05, 100)
	return &CellEntry{Version: CellFormatVersion, Key: "deadbeef", Record: *rec}
}

func TestCellEntryRoundTrip(t *testing.T) {
	e := sampleCellEntry(t)
	var buf bytes.Buffer
	if err := WriteCellEntry(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCellEntry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != e.Key || got.Record.Workload != e.Record.Workload {
		t.Fatalf("entry lost fields: %+v", got)
	}
	if got.Record.Counters != e.Record.Counters {
		t.Fatalf("counters differ:\n%+v\n%+v", got.Record.Counters, e.Record.Counters)
	}
}

// Writes of the same entry must be byte-identical — the property the
// content-addressed cache's "second submission returns identical
// payload bytes" guarantee rests on.
func TestCellEntryWriteDeterministic(t *testing.T) {
	e := sampleCellEntry(t)
	var a, b bytes.Buffer
	if err := WriteCellEntry(&a, e); err != nil {
		t.Fatal(err)
	}
	if err := WriteCellEntry(&b, e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same entry produced different bytes")
	}
}

func TestCellEntryRejectsBadInputs(t *testing.T) {
	e := sampleCellEntry(t)
	var buf bytes.Buffer
	if err := WriteCellEntry(&buf, e); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()

	cases := map[string]string{
		"empty":           "",
		"missing key":     strings.Replace(valid, `"key": "deadbeef"`, `"key": ""`, 1),
		"bad version":     strings.Replace(valid, `"version": 1`, `"version": 9`, 1),
		"unknown field":   `{"version":1,"key":"k","record":{},"extra":1}`,
		"trailing doc":    valid + valid,
		"trailing bytes":  valid + "garbage",
		"trailing object": valid + "{}",
	}
	for name, in := range cases {
		if _, err := ReadCellEntry(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every resultio reader must reject trailing bytes after the JSON
// document: a truncated-then-concatenated or corrupted file must not
// parse as its leading prefix. Regression for the silently-accepting
// readers the content-addressed cache exposed.
func TestReadersRejectTrailingData(t *testing.T) {
	rec := FromResult(sampleResult(t), 0.05, 100)
	var recBuf bytes.Buffer
	if err := Write(&recBuf, rec); err != nil {
		t.Fatal(err)
	}
	tour := &TournamentSuite{
		Workloads: []string{"bfs"},
		Entries:   []TournamentEntry{{Name: "planner=threshold", WorkloadCycles: []uint64{1}}},
	}
	var tourBuf bytes.Buffer
	if err := WriteTournamentSuite(&tourBuf, tour); err != nil {
		t.Fatal(err)
	}

	for name, rd := range map[string]struct {
		valid string
		read  func(r *strings.Reader) error
	}{
		"Record": {recBuf.String(), func(r *strings.Reader) error {
			_, err := Read(r)
			return err
		}},
		"TournamentSuite": {tourBuf.String(), func(r *strings.Reader) error {
			_, err := ReadTournamentSuite(r)
			return err
		}},
	} {
		if err := rd.read(strings.NewReader(rd.valid)); err != nil {
			t.Errorf("%s: rejected valid document: %v", name, err)
		}
		// Trailing whitespace is not data; it must stay accepted.
		if err := rd.read(strings.NewReader(rd.valid + "\n  \n")); err != nil {
			t.Errorf("%s: rejected trailing whitespace: %v", name, err)
		}
		for _, trailer := range []string{"garbage", "{}", rd.valid} {
			if err := rd.read(strings.NewReader(rd.valid + trailer)); err == nil {
				t.Errorf("%s: accepted document with trailing %q", name, trailer[:min(len(trailer), 16)])
			}
		}
	}
}

// Writers must not mutate their input: defaulting Version happens on a
// copy. Regression for WriteTournamentSuite writing s.Version in place.
func TestWritersDoNotMutateInput(t *testing.T) {
	rec := FromResult(sampleResult(t), 0.05, 100)
	rec.Version = 0
	if err := Write(&bytes.Buffer{}, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Version != 0 {
		t.Errorf("Write mutated rec.Version to %d", rec.Version)
	}

	tour := &TournamentSuite{
		Workloads: []string{"bfs"},
		Entries:   []TournamentEntry{{Name: "planner=threshold", WorkloadCycles: []uint64{1}}},
	}
	if err := WriteTournamentSuite(&bytes.Buffer{}, tour); err != nil {
		t.Fatal(err)
	}
	if tour.Version != 0 {
		t.Errorf("WriteTournamentSuite mutated s.Version to %d", tour.Version)
	}

	entry := sampleCellEntry(t)
	entry.Version = 0
	entry.Record.Version = 0
	if err := WriteCellEntry(&bytes.Buffer{}, entry); err != nil {
		t.Fatal(err)
	}
	if entry.Version != 0 || entry.Record.Version != 0 {
		t.Errorf("WriteCellEntry mutated versions: %d/%d", entry.Version, entry.Record.Version)
	}
}
