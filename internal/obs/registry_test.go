package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestCounterGaugeHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(41)
	if got := r.Collect().Counters["a.b"]; got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same name returns the same underlying cell.
	r.Counter("a.b").Add(8)
	// Gauges reach the snapshot through a provider.
	r.RegisterProvider(func(e Emitter) { e.Gauge("g", 0.5) })
	s := r.Collect()
	if s.Counters["a.b"] != 50 || s.Gauges["g"] != 0.5 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestZeroHandlesAreNoOps(t *testing.T) {
	var c Counter
	var h *Histogram
	c.Inc()
	c.Add(10)
	h.Observe(7)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1024, math.MaxUint64} {
		h.Observe(v)
	}
	s := r.Collect()
	hs := s.Histograms["h"]
	if hs.Count != 7 || hs.Min != 0 || hs.Max != math.MaxUint64 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	// 0 -> bucket le=0; 1 -> le=1; 2,3 -> le=3; 4 -> le=7; 1024 -> le=2047;
	// MaxUint64 -> le=MaxUint64.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 7: 1, 2047: 1, math.MaxUint64: 1}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("bucket count = %d, want %d (%+v)", len(hs.Buckets), len(want), hs.Buckets)
	}
	for _, b := range hs.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
}

func TestProvidersEmitAtCollect(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.RegisterProvider(func(e Emitter) {
		calls++
		e.Counter("prov.c", uint64(calls))
		e.Gauge("prov.g", float64(calls)/2)
	})
	s1 := r.Collect()
	s2 := r.Collect()
	if s1.Counters["prov.c"] != 1 || s2.Counters["prov.c"] != 2 {
		t.Fatalf("provider counters: %v then %v", s1.Counters, s2.Counters)
	}
	if s2.Gauges["prov.g"] != 1.0 {
		t.Fatalf("provider gauge = %v", s2.Gauges["prov.g"])
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(7)
	r.Histogram("h").Observe(5)
	s := r.Collect()
	s.Name = "run-a"
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.Counter("x") != 7 || back.Histograms["h"].Count != 1 || back.Name != "run-a" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	bad := back
	bad.Version = 99
	if bad.Validate() == nil {
		t.Fatal("version mismatch must fail validation")
	}
}
