package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"uvmsim"
	"uvmsim/internal/config"
	"uvmsim/internal/core"
	"uvmsim/internal/experiments"
	"uvmsim/internal/report"
	"uvmsim/internal/snapshot"
	"uvmsim/internal/sweep"
	"uvmsim/internal/workloads"
)

// params are a run's settings, shared by every workload.
type params struct {
	seed  uint64
	nproc int
	smoke bool
}

// runner is one workload's implementation.
type runner interface {
	// setup builds what a pass needs, replacing what an earlier setup built.
	setup() error
	// pass runs the workload's fixed work once through the simulator's
	// public entry points, recording every job and output checksum.
	pass(r *passRec) error
	// verify runs once after the timed passes for checks that need
	// another simulation.
	verify(r *passRec) error
	// layers is the traced run: it fills l and records the checksums of
	// the untraced pass it makes.
	layers(l *layerRun, r *passRec) error
	close()
}

// workloadDef is one workload of BENCHMARK.json, which says why the
// benchmark has it.
type workloadDef struct {
	name string
	make func(p params) runner
}

var workloadDefs = []workloadDef{
	{"paper-fig67", newFig67},
	{"ra-evict", newRAEvict},
	{"fig8-psweep", newFig8},
	{"simd-mixed", newSimd},
	{"multigpu-pdes", newMultiGPU},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fnvHex is the FNV-64a digest of s in hex.
func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// figure is a paper figure sweep run through its public entry point
// (paper-fig67, fig8-psweep): every paper workload under each column at
// 125%.
type figure struct {
	p     params
	scale float64
	cols  []column
	// run calls the entry point and records its output checksums.
	run func(o uvmsim.ExperimentOptions, r *passRec)
	// sums records the same checksums from the cycles of every cell, in
	// row-major order.
	sums func(cycles []uint64, r *passRec)
	// check, if set, runs once after the timed passes.
	check func(r *passRec)
}

// setup builds the figure's inputs one at a time, as the figure call
// will again; nothing is kept.
func (f *figure) setup() error {
	for _, in := range f.inputs() {
		workloads.MustGet(in.name)(in.scale)
	}
	return nil
}

func (f *figure) inputs() []input {
	var ins []input
	for _, name := range workloads.Names() {
		ins = append(ins, input{name, f.scale})
	}
	return ins
}

func (f *figure) opts() uvmsim.ExperimentOptions {
	return uvmsim.ExperimentOptions{Scale: f.scale, Workers: f.p.nproc, Snapshot: true}
}

// cells lists the sweep's cells as the figure derives them.
func (f *figure) cells() []cell {
	return policyCells(buildAll(f.inputs()), f.inputs(), 125, f.cols)
}

func (f *figure) pass(r *passRec) error {
	f.run(f.opts(), r)
	r.attempted++
	return nil
}

func (f *figure) verify(r *passRec) error {
	if f.check != nil {
		f.check(r)
	}
	return nil
}

func (f *figure) close() {}

// layers makes one untraced pass, then traces every cell from scratch;
// the checksums the traced cells give must equal the pass's.
func (f *figure) layers(l *layerRun, r *passRec) error {
	o := f.opts()
	var st snapshot.Stats
	o.SnapStats = &st
	start := time.Now()
	f.run(o, r)
	r.attempted++
	parallelS := time.Since(start).Seconds()

	cells := f.cells()
	counters, err := l.traceCells(cells)
	if err != nil {
		return err
	}
	cycles := make([]uint64, len(counters))
	for i := range counters {
		cycles[i] = counters[i].Cycles
	}
	f.sums(cycles, r)
	l.metrics["snapshot.shared_kernel_frac"] = ratio(float64(st.SharedKernels), float64(st.TotalKernels))
	l.metrics["snapshot.forked_cells"] = float64(st.Forked)
	l.metrics["sweep.cells"] = float64(len(cells))
	l.metrics["sweep.speedup"] = ratio(l.plainS, parallelS)
	return nil
}

// column is one column of a policy sweep: a policy on a base config.
type column struct {
	name string
	pol  config.MigrationPolicy
	base config.Config
}

// paperPolicies are the four policies of the paper on base.
func paperPolicies(base config.Config) []column {
	var cols []column
	for _, pol := range uvmsim.Policies() {
		cols = append(cols, column{pol.String(), pol, base})
	}
	return cols
}

// policyCells derives one cell per (input, column) at pct exactly as the
// experiment harness does.
func policyCells(built map[input]*workloads.Built, ins []input, pct uint64, cols []column) []cell {
	var cells []cell
	for _, in := range ins {
		for _, col := range cols {
			cells = append(cells, cell{
				name: fmt.Sprintf("%s/%s/%d%%", in.name, col.name, pct),
				in:   in,
				cfg:  core.DeriveConfig(built[in], 1, pct, col.pol, col.base),
			})
		}
	}
	return cells
}

func newFig67(p params) runner {
	base := config.Default()
	base.Penalty = 8
	f := &figure{p: p, scale: pick(p.smoke, 1.0, 0.02), cols: paperPolicies(base)}
	f.run = func(o uvmsim.ExperimentOptions, r *passRec) {
		_, _, cycles := uvmsim.Fig6And7Cycles(o)
		r.observe("cycles", fmt.Sprint(cycles))
	}
	f.sums = func(cycles []uint64, r *passRec) {
		var total uint64
		for _, c := range cycles {
			total += c
		}
		r.observe("cycles", fmt.Sprint(total))
	}
	return f
}

// newFig8 checks two keys: the digest of the table Fig8 prints, and the
// digest of every cell's simulated cycles. The table holds each cell's
// cycles divided by its row's baseline cell, as a float64, so after the
// passes the baseline cells are simulated again from scratch and every
// cell's cycles are read back from the table exactly (the ratio of two
// integers below 2^53 rounds back to the numerator).
func newFig8(p params) runner {
	cols := []column{{"Baseline", uvmsim.PolicyDisabled, config.Default()}}
	for _, pen := range experiments.Fig8Penalties {
		base := config.Default()
		base.Penalty = pen
		cols = append(cols, column{fmt.Sprintf("p=%d", pen), uvmsim.PolicyAdaptive, base})
	}
	f := &figure{p: p, scale: pick(p.smoke, 1.0, 0.02), cols: cols}
	var table *report.Table
	f.run = func(o uvmsim.ExperimentOptions, r *passRec) {
		table = uvmsim.Fig8(o)
		r.observe("table", fnvHex(table.CSV()))
	}
	// The table Fig8 prints: each row normalized to its baseline cell.
	f.sums = func(cycles []uint64, r *passRec) {
		t := &report.Table{}
		for _, col := range cols {
			t.Columns = append(t.Columns, col.name)
		}
		for i, name := range workloads.Names() {
			row := cycles[i*len(cols) : (i+1)*len(cols)]
			values := []float64{1.0}
			for _, c := range row[1:] {
				values = append(values, float64(c)/float64(row[0]))
			}
			t.Add(name, values...)
		}
		r.observe("table", fnvHex(t.CSV()))
		r.observe("cycles", fnvHex(fmt.Sprint(cycles)))
	}
	f.check = func(r *passRec) {
		built := buildAll(f.inputs())
		cells := policyCells(built, f.inputs(), 125, cols)
		jobs := make([]func() uint64, len(table.Rows))
		for i := range jobs {
			c := cells[i*len(cols)]
			jobs[i] = func() uint64 { return uvmsim.Run(built[c.in], c.cfg).Runtime() }
		}
		var cycles []uint64
		for i, base := range sweep.Parallel(jobs, p.nproc) {
			for _, v := range table.Rows[i].Values {
				cycles = append(cycles, uint64(math.Round(v*float64(base))))
			}
		}
		r.attempted++
		r.observe("cycles", fnvHex(fmt.Sprint(cycles)))
	}
	return f
}

func pick[T any](smoke bool, full, small T) T {
	if smoke {
		return small
	}
	return full
}

// raEvict runs ra under the four paper policies in parallel.
type raEvict struct {
	p     params
	in    input
	cells []cell
	b     *workloads.Built
}

func newRAEvict(p params) runner {
	return &raEvict{p: p, in: input{"ra", pick(p.smoke, 16.0, 0.5)}}
}

func (w *raEvict) setup() error {
	built := buildAll([]input{w.in})
	w.b = built[w.in]
	w.cells = policyCells(built, []input{w.in}, 150, paperPolicies(config.Default()))
	return nil
}

func (w *raEvict) pass(r *passRec) error {
	jobs := make([]func() uint64, len(w.cells))
	for i, c := range w.cells {
		jobs[i] = func() uint64 { return uvmsim.Run(w.b, c.cfg).Runtime() }
	}
	for i, cycles := range sweep.Parallel(jobs, w.p.nproc) {
		r.attempted++
		r.observe("cycles."+w.cells[i].cfg.Policy.String(), fmt.Sprint(cycles))
	}
	return nil
}

func (w *raEvict) verify(*passRec) error { return nil }
func (w *raEvict) close()                {}

func (w *raEvict) layers(l *layerRun, r *passRec) error {
	if err := w.setup(); err != nil {
		return err
	}
	start := time.Now()
	if err := w.pass(r); err != nil {
		return err
	}
	parallelS := time.Since(start).Seconds()
	counters, err := l.traceCells(w.cells)
	if err != nil {
		return err
	}
	for i, c := range w.cells {
		r.observe("cycles."+c.cfg.Policy.String(), fmt.Sprint(counters[i].Cycles))
	}
	l.metrics["sweep.cells"] = float64(len(w.cells))
	l.metrics["sweep.speedup"] = ratio(l.plainS, parallelS)
	return nil
}
