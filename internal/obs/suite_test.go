package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestSuiteDisabledReturnsNilRuns(t *testing.T) {
	s := NewSuite(Options{})
	if r := s.NewRun("x"); r != nil {
		t.Fatalf("disabled suite produced run %+v", r)
	}
	if (Options{}).Enabled() {
		t.Fatal("zero options must be disabled")
	}
}

func TestSuiteExportsAreSortedByRunName(t *testing.T) {
	s := NewSuite(Options{Metrics: true, Trace: true})
	// Register out of order, from multiple goroutines, as a sweep would.
	names := []string{"c", "a", "b"}
	var wg sync.WaitGroup
	for _, n := range names {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			r := s.NewRun(n)
			r.Reg.Counter("k").Add(1)
			r.Tr.Emit(Span{Name: n, Start: 1})
		}(n)
	}
	wg.Wait()
	snap := s.Collect()
	if len(snap.Runs) != 3 || snap.Runs[0].Name != "a" || snap.Runs[1].Name != "b" || snap.Runs[2].Name != "c" {
		t.Fatalf("runs = %+v", snap.Runs)
	}

	var buf bytes.Buffer
	if err := s.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SuiteSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Version != MetricsFormatVersion || len(back.Runs) != 3 || back.Runs[0].Validate() != nil {
		t.Fatalf("metrics document = %+v", back)
	}

	buf.Reset()
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged chrome trace invalid: %v", err)
	}
	// Three processes, each with a metadata + span event at least.
	if len(doc.TraceEvents) < 6 {
		t.Fatalf("trace events = %d", len(doc.TraceEvents))
	}
}

func TestOptionsNewRun(t *testing.T) {
	r := Options{Metrics: true, CheckEvery: 10}.NewRun("n")
	if r == nil || r.Reg == nil || r.Tr != nil || r.CheckEvery != 10 || !r.Enabled() {
		t.Fatalf("run = %+v", r)
	}
	var nilRun *Run
	if nilRun.Enabled() {
		t.Fatal("nil run must be disabled")
	}
}
