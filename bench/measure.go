package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// A run sets its workload up before every pass and then again until it
// has at least setupMin set-up times and, for cheap set-ups, until they
// add up to setupBudget seconds or setupMax samples; setup_s is their
// median.
const (
	setupMin    = 3
	setupBudget = 0.25
	setupMax    = 100
)

// passRec collects what one pass did: how many jobs (calls into a public
// entry point of the simulator, or service jobs) and checks it attempted,
// which of them failed, and the output checksums it observed.
type passRec struct {
	attempted int
	failed    int
	sums      map[string]string
	problems  []string
}

// observe records an output checksum under key.
func (r *passRec) observe(key, value string) {
	if r.sums == nil {
		r.sums = make(map[string]string)
	}
	if old, ok := r.sums[key]; ok && old != value {
		r.fail("checksum %s changed within a pass: %s then %s", key, old, value)
	}
	r.sums[key] = value
}

func (r *passRec) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkSums compares the observed checksums with the committed ones: an
// observed key with a committed value must match it, and every committed
// key that does not name a seed must have been observed. Keys naming a
// seed ("colo@seed=3") are committed for the default seed only; other
// seeds are checked by re-execution instead.
func (r *passRec) checkSums(want map[string]string) {
	for _, k := range sortedKeys(r.sums) {
		r.attempted++
		if w, ok := want[k]; ok && w != r.sums[k] {
			r.fail("checksum %s = %s, committed %s", k, r.sums[k], w)
		}
	}
	for _, k := range sortedKeys(want) {
		if _, ok := r.sums[k]; !ok && !strings.Contains(k, "@seed=") {
			r.attempted++
			r.fail("checksum %s was not produced", k)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// cpuSeconds is the user+system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, mapping x/0 to 0 (a layer the workload never called).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runE2E performs one untraced run: timed passes, each after a set-up,
// until the next pass would end past seconds (at least one pass); then
// further set-ups, and the runner's untimed verification. The checksums
// of every pass and of the verification are then compared with the
// committed ones. It returns the end-to-end metrics.
func runE2E(r runner, seconds float64, want map[string]string) (map[string]float64, *passRec, error) {
	var setups []float64
	var setupTotal float64
	setup := func() error {
		r.close()
		start := time.Now()
		err := r.setup()
		d := time.Since(start).Seconds()
		setups, setupTotal = append(setups, d), setupTotal+d
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		return nil
	}
	total := &passRec{}
	var walls, cpus, allocs []float64
	measured := 0.0
	for {
		if err := setup(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		alloc0, cpu0 := totalAllocMB(), cpuSeconds()
		start := time.Now()
		rec := &passRec{}
		if err := r.pass(rec); err != nil {
			return nil, nil, err
		}
		wall := time.Since(start).Seconds()
		walls = append(walls, wall)
		cpus = append(cpus, cpuSeconds()-cpu0)
		allocs = append(allocs, totalAllocMB()-alloc0)
		total.merge(rec)
		measured += wall
		if measured+wall > seconds {
			break
		}
	}
	for len(setups) < setupMin || (setupTotal < setupBudget && len(setups) < setupMax) {
		if err := setup(); err != nil {
			return nil, nil, err
		}
	}
	if err := r.verify(total); err != nil {
		return nil, nil, err
	}
	total.checkSums(want)
	return map[string]float64{
		"wall_s":   median(walls),
		"cpu_s":    median(cpus),
		"setup_s":  median(setups),
		"alloc_mb": median(allocs),
	}, total, nil
}

func (r *passRec) merge(o *passRec) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
	for _, k := range sortedKeys(o.sums) {
		r.observe(k, o.sums[k])
	}
}
