// Command bench is the simulator's benchmark: five workloads run through
// the simulator's public entry points, end-to-end metrics from untraced
// runs, and per-layer metrics from a separate traced run. Build and run
// it with bench/run.sh; see bench/README.md for the workloads and the
// metric dictionary.
//
//	bench --workload <name> [--seed n] [--seconds n] [--trace 0|1] [--smoke]
//	bench [-layers] [-reps n] [-out file]      every workload, one child process per run
//	bench -compare A.json B.json               verdict per metric per workload
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeed is the seed the committed checksums were recorded with.
const defaultSeed = 1

// checksums.json holds the committed output checksums per workload, for
// full-size and smoke runs.
//
//go:embed checksums.json
var checksumsJSON []byte

type checksumFile struct {
	Full  map[string]map[string]string `json:"full"`
	Smoke map[string]map[string]string `json:"smoke"`
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricValue and result are the JSON the benchmark prints last.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	reps     int
	out      string
	record   bool
	compare  bool
	// spin slows every traced planner call (the attribution test).
	spin time.Duration
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var layers bool
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process and print its result as the last line of standard output (default: every workload, each run in a child process)")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed of the inputs the benchmark generates (the simd job stream and the co-location seed); runs with -reps use seed, seed+1, ...")
	fs.IntVar(&o.seconds, "seconds", 10, "measure passes of the workload's fixed work until the next one would end past this many seconds (at least one pass)")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced run, reporting per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&layers, "layers", false, "same as -trace 1")
	fs.BoolVar(&o.smoke, "smoke", false, "run every workload at a tiny scale (checked against the smoke checksums)")
	fs.IntVar(&o.reps, "reps", 1, "runs per workload when running every workload")
	fs.StringVar(&o.out, "out", "", "when running every workload, write every run's result to this JSON file (input of -compare)")
	fs.BoolVar(&o.record, "record", false, "write the observed output checksums into bench/checksums.json instead of checking them")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files (arguments A.json B.json) under BENCHMARK.json's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if layers {
		o.trace = 1
	}
	root, sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return runCompare(args[0], args[1], sp, stdout, stderr)
	case len(args) > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", args)
		return 2
	case o.trace != 0 && o.trace != 1, o.seconds < 1, o.reps < 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1, -seconds and -reps at least 1")
		return 2
	case o.workload == "":
		return runAll(o, root, sp, stdout, stderr)
	}
	res, err := measure(o, root, sp, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// loadSpec finds BENCHMARK.json in the working directory or a parent and
// returns that directory, the repository root.
func loadSpec() (string, *spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var sp spec
			if err := json.Unmarshal(data, &sp); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			var names []string
			for _, w := range sp.Workloads {
				names = append(names, w.Name)
			}
			if !slices.Equal(names, workloadNames()) {
				return "", nil, fmt.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, workloadNames())
			}
			return dir, &sp, nil
		}
		if !errors.Is(err, os.ErrNotExist) || filepath.Dir(dir) == dir {
			return "", nil, fmt.Errorf("no BENCHMARK.json in the working directory or its parents")
		}
		dir = filepath.Dir(dir)
	}
}

func loadChecksums() (checksumFile, error) {
	var cf checksumFile
	if err := json.Unmarshal(checksumsJSON, &cf); err != nil {
		return cf, fmt.Errorf("checksums.json: %w", err)
	}
	return cf, nil
}

func (cf *checksumFile) group(smoke bool) map[string]map[string]string {
	g := &cf.Full
	if smoke {
		g = &cf.Smoke
	}
	if *g == nil {
		*g = make(map[string]map[string]string)
	}
	return *g
}

// measure performs one run of one workload and returns its result.
func measure(o options, root string, sp *spec, stderr io.Writer) (*result, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames(), ", "))
	}
	cf, err := loadChecksums()
	if err != nil {
		return nil, err
	}
	want := cf.group(o.smoke)[def.name]
	if o.record {
		want = nil
	}
	p := params{seed: o.seed, nproc: runtime.NumCPU(), smoke: o.smoke}
	r := def.make(p)
	defer r.close()

	var values map[string]float64
	var rec *passRec
	declared := sp.EndToEnd
	if o.trace == 0 {
		if values, rec, err = runE2E(r, float64(o.seconds), want); err != nil {
			return nil, err
		}
	} else {
		declared = sp.PerLayer
		l := newLayerRun(o.spin)
		rec = &passRec{}
		if err := r.layers(l, rec); err != nil {
			return nil, err
		}
		rec.checkSums(want)
		values = l.layerMetrics()
		l.report(stderr)
		path := filepath.Join(root, ".bench_build", "spans-"+def.name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := l.t.writeSpans(path); err != nil {
			return nil, err
		}
	}
	for _, msg := range rec.problems {
		fmt.Fprintf(stderr, "bench: %s: %s\n", def.name, msg)
	}
	if o.record {
		if err := recordChecksums(root, o, rec.sums); err != nil {
			return nil, err
		}
	}
	metrics := make(map[string]metricValue, len(declared))
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %s, which the benchmark does not measure", m.Name)
		}
		metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(stderr, "%-14s %-30s %14.6g %s\n", def.name, m.Name, v, m.Unit)
	}
	if len(values) != len(declared) {
		return nil, fmt.Errorf("the benchmark measures %d metrics, BENCHMARK.json declares %d", len(values), len(declared))
	}
	return &result{
		Correct:   rec.failed == 0,
		Attempted: max(rec.attempted, 1),
		Failed:    rec.failed,
		Metrics:   metrics,
	}, nil
}

// recordChecksums stores the observed checksums of this workload in the
// source checksums.json. Seed-specific keys are kept for the default
// seed only.
func recordChecksums(root string, o options, sums map[string]string) error {
	path := filepath.Join(root, "bench", "checksums.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cf checksumFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	keep := make(map[string]string)
	for k, v := range sums {
		if !strings.Contains(k, "@seed=") || o.seed == defaultSeed {
			keep[k] = v
		}
	}
	cf.group(o.smoke)[o.workload] = keep
	if data, err = json.MarshalIndent(cf, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runsFile is the -out document: every run's result per workload.
type runsFile struct {
	GoVersion string              `json:"go_version"`
	NumCPU    int                 `json:"num_cpu"`
	Seconds   int                 `json:"seconds"`
	Trace     int                 `json:"trace"`
	Smoke     bool                `json:"smoke"`
	Runs      map[string][]result `json:"runs"`
}

// runAll runs every workload reps times, each run in its own child
// process so memory and GC state are per run, and prints the medians.
func runAll(o options, root string, sp *spec, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	doc := runsFile{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke, Runs: make(map[string][]result)}
	code := 0
	for _, w := range workloadDefs {
		for rep := 0; rep < o.reps; rep++ {
			args := []string{"--workload", w.name, "--seed", fmt.Sprint(o.seed + uint64(rep)),
				"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace)}
			if o.smoke {
				args = append(args, "--smoke")
			}
			if o.record {
				args = append(args, "--record")
			}
			cmd := exec.Command(exe, args...)
			cmd.Dir = root
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil {
				fmt.Fprintf(stderr, "bench: %s run %d failed: %v %v\n", w.name, rep, err, perr)
				code = 1
				if perr != nil {
					continue
				}
			}
			doc.Runs[w.name] = append(doc.Runs[w.name], *res)
		}
	}
	printMedians(stdout, &doc, sp)
	if o.out != "" {
		data, err := json.MarshalIndent(&doc, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// lastResult parses the last line of a child's standard output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = slices.Clone(line)
		}
	}
	if last == nil {
		return nil, errors.New("no result line")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// printMedians prints each workload's median of every metric.
func printMedians(w io.Writer, doc *runsFile, sp *spec) {
	metrics := sp.EndToEnd
	if doc.Trace == 1 {
		metrics = sp.PerLayer
	}
	for _, wd := range workloadDefs {
		runs := doc.Runs[wd.name]
		if len(runs) == 0 {
			continue
		}
		failed, attempted := 0, 0
		for _, r := range runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		fmt.Fprintf(w, "%s: %d run(s), %d of %d checks failed\n", wd.name, len(runs), failed, attempted)
		for _, m := range metrics {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, median(values(runs, m.Name)), m.Unit)
		}
	}
}

// values lists one metric over runs.
func values(runs []result, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}
