package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerKeepsFirstSpan(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 9; i++ {
		tr.Emit(Span{Name: "s", Start: uint64(i)})
	}
	got := tr.Spans()
	// 1-in-4 sampling keeps the 1st, 5th and 9th spans.
	if len(got) != 3 || got[0].Start != 0 || got[1].Start != 4 || got[2].Start != 8 {
		t.Fatalf("sampled spans = %+v", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Span{Name: "x"})
	if tr.Spans() != nil {
		t.Fatal("nil tracer must record nothing")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	s := NewSuite(Options{Trace: true})
	tr := s.NewRun("run-a").Tr
	tr.Emit(Span{Name: "fault_batch", Cat: "fault", TID: TrackFault, Start: 100, Dur: 50, Value: 3})
	tr.Emit(Span{Name: "evict", Cat: "evict", TID: TrackEvict, Start: 200}) // instantaneous
	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev["ph"].(string))
	}
	// Metadata (process + thread names) precede the complete/instant events.
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "X") || !strings.Contains(joined, "i") || !strings.HasPrefix(joined, "M") {
		t.Fatalf("phases = %v", phases)
	}
}

func TestJSONLOneObjectPerLine(t *testing.T) {
	s := NewSuite(Options{Trace: true}) // TraceSample 0 means keep all
	tr := s.NewRun("r1").Tr
	tr.Emit(Span{Name: "a", Start: 1})
	tr.Emit(Span{Name: "b", Start: 2, Dur: 3, Value: 4})
	var buf bytes.Buffer
	if err := s.WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d invalid: %v", lines, err)
		}
		if obj["run"] != "r1" {
			t.Fatalf("line %d missing run tag: %v", lines, obj)
		}
	}
	if lines != 2 {
		t.Fatalf("lines = %d, want 2", lines)
	}
}
