package resultio

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/obs"
)

func sampleResult(t *testing.T) *core.Result {
	t.Helper()
	return core.RunWorkload("backprop", 0.05, 1, 100, config.PolicyDisabled, config.Default())
}

// decodeValid reads one document the way the serve client reads each
// cell of a job payload: strictly, then through the entry's Validate.
func decodeValid(r io.Reader, v interface{ Validate() error }) error {
	if err := DecodeStrict(r, v); err != nil {
		return err
	}
	return v.Validate()
}

// cellOf wraps a record in a cache entry, the form in which records
// are read back.
func cellOf(rec *Record) *CellEntry {
	return &CellEntry{Version: CellFormatVersion, Key: "k", Record: *rec}
}

func TestRoundTrip(t *testing.T) {
	res := sampleResult(t)
	rec := FromResult(res, 0.05, 100)
	var buf bytes.Buffer
	if err := Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got := new(Record)
	if err := DecodeStrict(&buf, got); err != nil {
		t.Fatal(err)
	}
	if err := validateRecord(got); err != nil {
		t.Fatal(err)
	}
	if got.Workload != "backprop" || got.Scale != 0.05 || got.OversubPercent != 100 {
		t.Fatalf("metadata lost: %+v", got)
	}
	if got.Counters != rec.Counters {
		t.Fatalf("counters differ:\n%+v\n%+v", got.Counters, rec.Counters)
	}
	if len(got.Spans) != len(rec.Spans) {
		t.Fatalf("spans lost: %d vs %d", len(got.Spans), len(rec.Spans))
	}
	if got.Config.Policy != rec.Config.Policy || got.Config.DeviceMemBytes != rec.Config.DeviceMemBytes {
		t.Fatal("config fields lost")
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	res := sampleResult(t)
	rec := FromResult(res, 1, 100)
	rec.Version = 99
	if err := cellOf(rec).Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: %v", err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"{",
		`{"version":1}`,                        // missing workload
		`{"version":1,"workload":"x","bad":1}`, // unknown field
	}
	for _, in := range cases {
		if err := decodeValid(strings.NewReader(`{"version":1,"key":"k","record":`+in+`}`), &CellEntry{}); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestReadValidatesCounters(t *testing.T) {
	res := sampleResult(t)
	rec := FromResult(res, 1, 100)
	rec.Counters.PrefetchedPages = rec.Counters.MigratedPages + 1
	if err := cellOf(rec).Validate(); err == nil {
		t.Fatal("accepted inconsistent counters")
	}
	rec = FromResult(res, 1, 100)
	rec.Metrics = &obs.Snapshot{Version: obs.MetricsFormatVersion,
		Counters: map[string]uint64{"sim.cycles": rec.Counters.Cycles + 1}}
	if err := cellOf(rec).Validate(); err == nil || !strings.Contains(err.Error(), "sim.cycles") {
		t.Fatalf("metrics block disagreeing with the counters: %v", err)
	}
}
