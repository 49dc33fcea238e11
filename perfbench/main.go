// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the program as its users run it — ntga-serve's HTTP API
// or ntga-run's batch path — checks every answer against refengine, and
// prints its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run also replays the workload through the public calls the program makes,
// with spans around each, and reports the per-layer metrics instead. See
// perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (perfbench_test.go keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of untraced runs: what a user of the program
// sees. Every workload reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"heap_live_mb", "MB"},
	{"shuffle_bytes_per_query", "bytes"},
	{"dfs_write_bytes_per_query", "bytes"},
}

// perLayer are the metrics of traced runs. A layer a workload does not
// exercise reads 0 there; README.md maps each metric to the end-to-end
// metric and workload it should move.
var perLayer = []metricDef{
	{"rdf.parse_ms", "ms"},
	{"rdf.version_ms", "ms"},
	{"engine.load_ms", "ms"},
	{"plan.catalog_ms", "ms"},
	{"ingest.init_ms", "ms"},
	{"plan.layout_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"sparql.parse_us", "us"},
	{"query.compile_us", "us"},
	{"plan.optimize_us", "us"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.queue_wait_p95_ms", "ms"},
	{"server.slot_grants_per_query", "count"},
	{"engine.run_ms", "ms"},
	{"engine.decode_ms", "ms"},
	{"relmr.run_ms", "ms"},
	{"ntgamr.run_ms", "ms"},
	{"mapreduce.scan_ms", "ms"},
	{"mapreduce.map_ms", "ms"},
	{"mapreduce.sort_ms", "ms"},
	{"mapreduce.reduce_ms", "ms"},
	{"mapreduce.write_ms", "ms"},
	{"mapreduce.commit_ms", "ms"},
	{"mapreduce.tasks_per_query", "count"},
	{"mapreduce.cycles_per_query", "count"},
	{"mapreduce.map_only_jobs_per_query", "count"},
	{"mapreduce.straggler_ratio", "ratio"},
	{"mapreduce.reduce_byte_skew", "ratio"},
	{"hdfs.read_bytes_per_query", "bytes"},
	{"hdfs.used_bytes", "bytes"},
	{"query.project_ms", "ms"},
	{"query.format_ms", "ms"},
	{"ingest.validate_us", "us"},
	{"ingest.append_us", "us"},
	{"plan.catalog_fold_us", "us"},
	{"ingest.compact_ms", "ms"},
	{"server.cache_evicted_per_ingest", "count"},
	{"server.cache_retained_per_ingest", "count"},
	{"server.delta_blocks_at_read", "count"},
	{"go.alloc_bytes_per_query", "bytes"},
	{"go.allocs_per_query", "count"},
	{"go.gc_cycles", "count"},
	{"ingest_p50_ms", "ms"},
	{"compact_p50_ms", "ms"},
	{"ingest.send_late_p95_ms", "ms"},
	{"query.samples", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// outDir receives the traced run's spans and per-layer numbers.
	outDir string
}

// workload is one traffic mix; run measures it and returns its report.
type workload struct {
	name string
	run  func(c config) (*report, error)
}

var workloads = []workload{
	{"serve-miss", runServeMiss},
	{"serve-hit", runServeHit},
	{"ingest-mix", runIngestMix},
	{"batch-layout", runBatchLayout},
}

// report collects one run's counts, checks and metrics. check may be called
// from several goroutines.
type report struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string

	mu     sync.Mutex
	wrong  int
	sample []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a wrong answer; a nil error is a passed check.
func (r *report) check(what string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	if len(r.sample) < 5 {
		r.sample = append(r.sample, what+": "+err.Error())
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addLoop folds a closed loop's operation counts into the report.
func (r *report) addLoop(l loopResult) {
	r.attempted += l.attempted
	r.failed += l.failed
	if l.firstErr != nil {
		r.notef("first failed operation: %v", l.firstErr)
	}
}

// setLatencies reports the end-to-end query metrics of a timed region, and
// notes each operation's median latency; seq maps operation indices to
// operations.
func (r *report) setLatencies(l loopResult, seq []op) {
	byOp := map[string][]float64{}
	var names []string
	for k, i := range l.ops {
		x := seq[i%len(seq)]
		name := x.id
		if x.engine != "" {
			name += "/" + x.engine
		}
		if byOp[name] == nil {
			names = append(names, name)
		}
		byOp[name] = append(byOp[name], l.latencies[k])
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.3g", n, quantile(byOp[n], 0.5)))
	}
	r.notef("median ms by operation: %s", strings.Join(parts, ", "))
	st := summarize(l, roundLen(seq))
	r.notef("%d latency samples in %d rounds of %d; pooled p50 %.4g ms, p95 %.4g ms; %d per %.3g s",
		len(l.latencies), st.rounds, roundLen(seq), quantile(l.latencies, 0.5), quantile(l.latencies, 0.95), len(l.latencies), l.elapsed.Seconds())
	r.e2e["query_p50_ms"] = st.p50
	r.e2e["query_p95_ms"] = st.p95
	r.e2e["throughput_qps"] = st.throughput
	r.layer["query.samples"] = float64(len(l.latencies))
	if len(l.latencies) < 200 {
		r.notef("query_p95_ms rests on %d samples, fewer than the 200 that leave 10 beyond it", len(l.latencies))
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-miss, serve-hit, ingest-mix or batch-layout")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the timed region, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	c := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, outDir: *outDir}
	rep, err := w.run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs, values := endToEnd, rep.e2e
	if c.trace {
		defs, values = perLayer, rep.layer
	}
	return emit(os.Stdout, w.name, rep, defs, values)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

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

// emit prints the human-readable report and then, as the last line, the
// JSON result. It returns the process exit code: 1 when an answer was wrong.
func emit(out *os.File, name string, rep *report, defs []metricDef, values map[string]float64) int {
	res := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "workload %s: %d operations attempted, %d failed, %d wrong answers\n", name, rep.attempted, rep.failed, rep.wrong)
	for _, s := range rep.sample {
		fmt.Fprintf(out, "  WRONG %s\n", s)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", d.name, v, d.unit)
	}
	if extra := unknownKeys(values, defs); len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: internal error: unlisted metrics %v\n", extra)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// unknownKeys lists values that no definition names, so a misspelt metric
// fails loudly instead of reading 0.
func unknownKeys(values map[string]float64, defs []metricDef) []string {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
	}
	var out []string
	for k := range values {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
