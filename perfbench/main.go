// Command perfbench is udbench's benchmark. It drives three workloads
// against the unified engine, in process and over the wire server,
// through the repository's public package APIs only, checks their
// outputs against values computed apart from the engine, and prints
// end-to-end metrics (or, with -trace 1, per-layer metrics) as one
// JSON object on its last line of output.
//
//	go run . -workload t2_mix -seed 1 -seconds 30 -trace 0
//	go run . -workload all -seed 1 -seconds 30   # run report
//
// See README.md for what each workload and metric is for.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// roundResult is what one round of a workload measured. A run repeats
// rounds until its time is up; end-to-end metrics are medians over
// rounds.
type roundResult struct {
	setup    time.Duration
	recovery time.Duration
	ops      int
	failed   int
	elapsed  time.Duration
	cpu      time.Duration
	heapMB   float64
	lat      durs
	// layer holds per-layer values of this round; a run reports their
	// median over its traced rounds.
	layer map[string]float64
	// pooled holds samples merged over the traced rounds before their
	// percentiles are taken.
	pooled map[string]durs
	// checks lists the output checks that failed.
	checks []string
	// counts are the dataset's record counts after set-up.
	counts map[string]int
}

func newRound() *roundResult {
	return &roundResult{layer: map[string]float64{}, pooled: map[string]durs{}, counts: map[string]int{}}
}

// opSample records one finished operation of class op.
func (r *roundResult) opSample(op string, d time.Duration, err error) {
	r.ops++
	r.lat = append(r.lat, d)
	r.pooled["workload."+op] = append(r.pooled["workload."+op], d)
	if err != nil {
		r.failed++
	}
}

func (r *roundResult) failCheck(format string, args ...any) {
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// rounds maps each workload to its round: one set-up, measured phase,
// check and restart. k numbers the round within a run and tr is nil in
// untraced rounds.
var rounds = map[string]func(seed uint64, k int, tr *tracer) (*roundResult, error){
	"t2_mix":         t2MixRound,
	"analytic_reads": analyticReadsRound,
	"ts_ingest_wire": tsIngestWireRound,
}

func main() {
	name := flag.String("workload", "", "t2_mix, analytic_reads, ts_ingest_wire, or all for the run report")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if *name == "all" {
		ok := true
		for _, w := range []string{"t2_mix", "analytic_reads", "ts_ingest_wire"} {
			out, err := run(w, *seed, *seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			ok = ok && out.passed()
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if _, found := rounds[*name]; !found || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload t2_mix|analytic_reads|ts_ingest_wire|all -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	out, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.passed() {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// passed tells whether a run succeeded: every output check held and,
// since every operation of every workload is expected to succeed, no
// operation failed.
func (o output) passed() bool { return o.Correct && o.Failed == 0 }

// minRounds is the fewest rounds a run makes, whatever its length: a
// median needs three, and a traced run alternates traced and untraced
// rounds in the order T U U T.
func minRounds(traced bool) int {
	if traced {
		return 4
	}
	return 3
}

// run repeats rounds of workload name until seconds have passed and
// returns the run's result, after printing a human-readable report.
func run(name string, seed uint64, seconds float64, traced bool) (output, error) {
	round := rounds[name]
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, withTrace []*roundResult
	start := time.Now()
	for k := 0; k < minRounds(traced) || time.Since(start).Seconds() < seconds; k++ {
		var rt *tracer
		if traced && (k%4 == 0 || k%4 == 3) {
			rt = tr
		}
		runtime.GC() // each round starts from a collected heap
		r, err := round(seed, k, rt)
		if err != nil {
			return output{}, fmt.Errorf("%s round %d: %w", name, k, err)
		}
		if rt != nil {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := append(append([]*roundResult(nil), plain...), withTrace...)
	out := output{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range all {
		out.Attempted += r.ops
		out.Failed += r.failed
		if len(r.checks) > 0 {
			out.Correct = false
		}
	}
	if traced {
		out.Metrics = perLayerMetrics(plain, withTrace, tr)
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", name, seed)
		if err := tr.write(path); err != nil {
			return output{}, fmt.Errorf("write trace: %w", err)
		}
	} else {
		out.Metrics = endToEndMetrics(plain)
	}
	report(name, seed, traced, all, out)
	return out, nil
}

// endToEndMetrics are the medians over untraced rounds of what a user
// of the system sees.
func endToEndMetrics(rounds []*roundResult) map[string]metricValue {
	var setup, opsPerS, p50, cpu, heap, recovery []float64
	for _, r := range rounds {
		setup = append(setup, r.setup.Seconds())
		opsPerS = append(opsPerS, float64(r.ops)/r.elapsed.Seconds())
		p50 = append(p50, ms(r.lat.quantile(0.5)))
		cpu = append(cpu, us(r.cpu)/float64(r.ops))
		heap = append(heap, r.heapMB)
		recovery = append(recovery, r.recovery.Seconds())
	}
	return map[string]metricValue{
		"setup_s":       {median(setup), "s"},
		"ops_per_s":     {median(opsPerS), "ops/s"},
		"p50_ms":        {median(p50), "ms"},
		"cpu_us_per_op": {median(cpu), "us"},
		"heap_peak_mb":  {median(heap), "MB"},
		"recovery_s":    {median(recovery), "s"},
	}
}

// report prints what a reader needs to place the numbers: the metrics
// with units, op counts, the tail the sample supports, the dataset
// counts and the machine.
func report(name string, seed uint64, traced bool, rounds []*roundResult, out output) {
	var lat durs
	for _, r := range rounds {
		lat = append(lat, r.lat...)
	}
	fmt.Printf("== %s  seed=%d  trace=%v  rounds=%d  attempted=%d  failed=%d  correct=%v\n",
		name, seed, traced, len(rounds), out.Attempted, out.Failed, out.Correct)
	fmt.Printf("   machine: nproc=%d GOMAXPROCS=%d %s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	if q, tail, ok := supportedTail(len(lat)); ok {
		fmt.Printf("   latency: p50=%.4fms %s=%.4fms over %d samples\n", ms(lat.quantile(0.5)), tail, ms(lat.quantile(q)), len(lat))
	}
	if len(rounds) > 0 {
		fmt.Printf("   dataset: %s\n", formatCounts(rounds[0].counts))
	}
	for i, r := range rounds {
		fmt.Printf("   round %d: setup=%.4fs ops/s=%.1f cpu/op=%.1fus heap=%.1fMB recovery=%.4fs\n", i,
			r.setup.Seconds(), float64(r.ops)/r.elapsed.Seconds(), us(r.cpu)/float64(r.ops), r.heapMB, r.recovery.Seconds())
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-40s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, r := range rounds {
		for _, c := range r.checks {
			fmt.Printf("   CHECK FAILED: %s\n", c)
		}
	}
}

func formatCounts(c map[string]int) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return strings.Join(parts, " ")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
