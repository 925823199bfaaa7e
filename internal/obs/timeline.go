package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// Track identifiers group spans into timeline rows ("threads" in the
// Chrome trace model). One set is shared by every component so traces
// from different runs align.
const (
	TrackKernel   = 0 // kernel launch windows
	TrackFault    = 1 // fault-batch service windows
	TrackDMA      = 2 // host-to-device migration transfers
	TrackEvict    = 3 // eviction decisions (instantaneous)
	TrackPrefetch = 4 // prefetch batches riding on migrations
)

// trackNames maps track IDs to the row names shown by trace viewers.
var trackNames = map[int32]string{
	TrackKernel:   "kernel",
	TrackFault:    "fault service",
	TrackDMA:      "migration DMA",
	TrackEvict:    "eviction",
	TrackPrefetch: "prefetch",
}

// Span is one cycle-stamped timeline event. Instantaneous events have
// Dur 0. Value carries the span's primary magnitude (blocks, pages,
// bytes — the emitting site documents which).
type Span struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	TID   int32  `json:"tid"`
	Start uint64 `json:"start"`
	Dur   uint64 `json:"dur"`
	Value uint64 `json:"v,omitempty"`
}

// Tracer records spans with optional 1-in-N sampling. A nil *Tracer is a
// no-op receiver, so components emit unconditionally through a possibly
// nil handle. Sampling keeps the 1st, (N+1)th, (2N+1)th... spans —the
// first span is always kept, matching trace.Collector's semantics.
type Tracer struct {
	sampleEvery uint64
	seen        uint64
	spans       []Span
}

// NewTracer creates a tracer keeping one of every sampleEvery spans
// (0 and 1 both mean "keep all").
func NewTracer(sampleEvery uint64) *Tracer {
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	return &Tracer{sampleEvery: sampleEvery}
}

// Emit records one span, subject to sampling.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	if t.seen%t.sampleEvery == 0 {
		t.spans = append(t.spans, s)
	}
	t.seen++
}

// Spans returns the kept spans in emission order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// chromeEvent is one Chrome trace_event entry. Timestamps are emitted in
// simulated cycles; viewers display them as microseconds, so one
// displayed "us" is one GPU core cycle.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	TS   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeWriter streams a {"traceEvents":[...]} document.
type chromeWriter struct {
	w     *bufio.Writer
	enc   *json.Encoder
	first bool
	err   error
}

func newChromeWriter(w io.Writer) *chromeWriter {
	bw := bufio.NewWriter(w)
	cw := &chromeWriter{w: bw, first: true}
	_, cw.err = bw.WriteString(`{"traceEvents":[`)
	return cw
}

func (cw *chromeWriter) event(ev chromeEvent) {
	if cw.err != nil {
		return
	}
	if !cw.first {
		if _, cw.err = cw.w.WriteString(",\n"); cw.err != nil {
			return
		}
	}
	cw.first = false
	b, err := json.Marshal(ev)
	if err != nil {
		cw.err = err
		return
	}
	_, cw.err = cw.w.Write(b)
}

func (cw *chromeWriter) close() error {
	if cw.err != nil {
		return cw.err
	}
	if _, err := cw.w.WriteString("]}\n"); err != nil {
		return err
	}
	return cw.w.Flush()
}

// writeChromeRun emits one run's spans under the given pid, preceded by
// process/thread metadata so viewers label the rows.
func writeChromeRun(cw *chromeWriter, pid int, name string, spans []Span) {
	cw.event(chromeEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name}})
	emitted := make(map[int32]bool)
	for _, s := range spans {
		if !emitted[s.TID] {
			emitted[s.TID] = true
			if tn, ok := trackNames[s.TID]; ok {
				cw.event(chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: s.TID,
					Args: map[string]any{"name": tn}})
			}
		}
		ev := chromeEvent{Name: s.Name, Cat: s.Cat, PID: pid, TID: s.TID, TS: s.Start}
		if s.Dur > 0 {
			dur := s.Dur
			ev.Ph = "X"
			ev.Dur = &dur
		} else {
			ev.Ph = "i" // instantaneous
		}
		if s.Value != 0 {
			ev.Args = map[string]any{"v": s.Value}
		}
		cw.event(ev)
	}
}

// jsonlSpan is one JSONL trace line: the span plus its run name.
type jsonlSpan struct {
	Run string `json:"run,omitempty"`
	Span
}
