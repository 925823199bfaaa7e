package resultio

import (
	"bytes"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/core"
)

func sampleResult(t *testing.T) *core.Result {
	t.Helper()
	return core.RunWorkload("backprop", 0.05, 100, config.PolicyDisabled, config.Default())
}

func TestRoundTrip(t *testing.T) {
	res := sampleResult(t)
	rec := FromResult(res, 0.05, 100)
	var buf bytes.Buffer
	if err := Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
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
	var buf bytes.Buffer
	if err := Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "version") {
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
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestReadValidatesCounters(t *testing.T) {
	res := sampleResult(t)
	rec := FromResult(res, 1, 100)
	rec.Counters.PrefetchedPages = rec.Counters.MigratedPages + 1
	var buf bytes.Buffer
	if err := Write(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("accepted inconsistent counters")
	}
}
