package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uvmsim/internal/obs"
)

// ObsFlags are the observability flags of every simulating tool (see
// DESIGN.md, "Observability").
type ObsFlags struct {
	MetricsJSON, TraceOut        string
	TraceSample, CheckInvariants uint64
}

// Register defines -metrics-json, -trace-out, -trace-sample and
// -check-invariants on fs.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.MetricsJSON, "metrics-json", "", "write the observability metric registry of every run to this file as JSON ('-' for stdout)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write cycle-stamped timeline traces to this file ('-' for stdout; .jsonl = compact JSONL, otherwise Chrome trace_event JSON)")
	fs.Uint64Var(&f.TraceSample, "trace-sample", 1, "keep one of every N trace spans (with -trace-out; 1 = all)")
	fs.Uint64Var(&f.CheckInvariants, "check-invariants", 0, "run the cross-component invariant checker every N cycles (0 = off)")
}

// Visited returns the names of the flags set on the command line, in
// lexical order.
func Visited(fs *flag.FlagSet) []string {
	var names []string
	fs.Visit(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// Outputs is the one path a tool writes its outputs through: every
// output file, opened before any simulation so an unwritable path fails
// in milliseconds rather than after minutes of simulated work, and the
// obs.Suite that feeds -metrics-json and -trace-out. The path "-" is
// stdout.
type Outputs struct {
	Suite  *obs.Suite
	flags  ObsFlags
	stdout io.Writer
	stderr io.Writer
	open   map[string]io.Writer
	files  []*os.File
}

// Open checks the observability flags, opens their files and the extra
// output paths (empty ones are skipped) and builds the suite.
// traceSampleSet reports that -trace-sample was given.
func (f ObsFlags) Open(traceSampleSet bool, stdout, stderr io.Writer, extra ...string) (*Outputs, error) {
	if traceSampleSet && f.TraceOut == "" {
		return nil, fmt.Errorf("-trace-sample requires -trace-out")
	}
	o := &Outputs{flags: f, stdout: stdout, stderr: stderr, open: map[string]io.Writer{"-": stdout}}
	for _, path := range append([]string{f.MetricsJSON, f.TraceOut}, extra...) {
		if path == "" || o.open[path] != nil {
			continue
		}
		file, err := os.Create(path)
		if err != nil {
			o.Close()
			return nil, err
		}
		o.open[path] = file
		o.files = append(o.files, file)
	}
	o.Suite = obs.NewSuite(obs.Options{
		Metrics:     f.MetricsJSON != "",
		Trace:       f.TraceOut != "",
		TraceSample: f.TraceSample,
		CheckEvery:  f.CheckInvariants,
	})
	return o, nil
}

// Writer returns the opened output for path.
func (o *Outputs) Writer(path string) io.Writer { return o.open[path] }

// Write writes the output at path, if one was asked for, and reports it
// on stderr unless it went to stdout.
func (o *Outputs) Write(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := write(o.open[path]); err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(o.stderr, "wrote %s\n", path)
	}
	return nil
}

// Run runs the tool's simulations, then writes -metrics-json and
// -trace-out. An invariant-checker violation (a fail-fast panic carrying
// a cycle-stamped diagnostic) becomes the returned error; any other
// panic is a bug and propagates.
func (o *Outputs) Run(simulate func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*obs.Violation)
			if !ok {
				panic(r)
			}
			err = v
		}
	}()
	if err := simulate(); err != nil {
		return err
	}
	if err := o.Write(o.flags.MetricsJSON, o.Suite.WriteMetricsJSON); err != nil {
		return err
	}
	trace := o.Suite.WriteChromeTrace
	if strings.HasSuffix(o.flags.TraceOut, ".jsonl") {
		trace = o.Suite.WriteTraceJSONL
	}
	return o.Write(o.flags.TraceOut, trace)
}

// Close closes every output file.
func (o *Outputs) Close() {
	for _, f := range o.files {
		f.Close()
	}
}
