package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, ds := range []struct {
		name  string
		scale int
	}{{"bsbm", missScale}, {"lifesci", ingestScale}} {
		a, err := datasetText(ds.name, ds.scale)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := datasetText(ds.name, ds.scale); !bytes.Equal(a, b) {
			t.Errorf("%s: two generations differ", ds.name)
		}
	}
	text, _ := datasetText("lifesci", ingestScale)
	if !reflect.DeepEqual(splitIngest(text, 7), splitIngest(text, 7)) {
		t.Error("seed 7 split the ingest batches two ways")
	}
	a, b := splitIngest(text, 7), splitIngest(text, 8)
	if !bytes.Equal(a.base, b.base) || reflect.DeepEqual(a.batches, b.batches) {
		t.Error("seeds 7 and 8 should hold back the same subjects in different orders")
	}
	for name, seq := range map[string]func(int64) []op{
		"miss": missSequence, "hit": hitSequence, "read": readSequence, "batch": batchSequence,
	} {
		if !reflect.DeepEqual(seq(7), seq(7)) {
			t.Errorf("%s: seed 7 gave two request sequences", name)
		}
		if reflect.DeepEqual(seq(7), seq(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestSequenceShapes(t *testing.T) {
	hit := hitSequence(3)
	first := map[string]int{}
	for _, x := range hit[:roundLen(hit)] {
		first[x.id]++
	}
	if len(first) != len(catalogSeries("bsbm")) || first["Q1a"] <= first["B7"] {
		t.Errorf("hit round does not cover the catalog with Zipf popularity: %v", first)
	}
	// Every round holds the same operations, in its own order.
	for k := 1; k < roundsPerSequence; k++ {
		counts := map[string]int{}
		for _, x := range hit[k*roundLen(hit) : (k+1)*roundLen(hit)] {
			counts[x.id]++
		}
		if !reflect.DeepEqual(counts, first) {
			t.Fatalf("round %d holds %v, round 0 %v", k, counts, first)
		}
	}
	if n := roundLen(batchSequence(3)); n != len(batchQueries)*len(batchEngines) {
		t.Errorf("batch round has %d runs", n)
	}
	text, _ := datasetText("lifesci", ingestScale)
	in := splitIngest(text, 3)
	lines := func(b []byte) int { return bytes.Count(b, []byte("\n")) }
	held := 0
	for _, b := range in.batches {
		held += lines(b)
	}
	if held != in.batchTriples || lines(in.base)+held != lines(text) {
		t.Errorf("split loses triples: base %d + batches %d (counted %d) vs %d", lines(in.base), held, in.batchTriples, lines(text))
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{4, 2}, 0.5); got != 3 {
		t.Errorf("median of an even sample = %v, want the mean of the middle two, 3", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if !reflect.DeepEqual(s, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
}

func TestSummarizeTakesMediansOverRounds(t *testing.T) {
	// Three rounds of two operations, 10 ms and 30 ms each; the third round
	// is stalled tenfold. Rounds complete at 1 s, 2 s and 12 s.
	l := loopResult{
		latencies: []float64{10, 30, 10, 30, 100, 300},
		ops:       []int{0, 1, 2, 3, 4, 5},
		ends:      []time.Duration{500 * time.Millisecond, time.Second, 1500 * time.Millisecond, 2 * time.Second, 7 * time.Second, 12 * time.Second},
	}
	st := summarize(l, 2)
	if st.rounds != 3 || st.p50 != 20 || math.Abs(st.p95-29) > 1e-9 || st.throughput != 2 {
		t.Errorf("got %+v, want 3 rounds, p50 20, p95 29, 2 ops/s", st)
	}
}

func TestCheckersCatchPlantedFaults(t *testing.T) {
	rows := []string{"<a>\t<b>", "<a>\t<c>", "\"x\"\t<d>"}
	want := hashRows(rows)
	ok := response{cache: "bypass", cycles: 2, totalRows: 3, rows: rows}
	if err := checkMiss(ok, want); err != nil {
		t.Fatalf("correct answer refused: %v", err)
	}
	planted := map[string]response{
		"dropped row":      {cache: "bypass", cycles: 2, totalRows: 3, rows: rows[:2]},
		"extra row":        {cache: "bypass", cycles: 2, totalRows: 3, rows: append(append([]string{}, rows...), "<z>\t<z>")},
		"changed row":      {cache: "bypass", cycles: 2, totalRows: 3, rows: []string{rows[0], rows[1], "\"y\"\t<d>"}},
		"wrong total_rows": {cache: "bypass", cycles: 2, totalRows: 4, rows: rows},
		"cache hit":        {cache: "hit", cycles: 0, totalRows: 3, rows: rows},
	}
	for name, r := range planted {
		if checkMiss(r, want) == nil {
			t.Errorf("checkMiss passed a %s", name)
		}
	}

	page := response{cache: "hit", totalRows: 3, rows: rows[:2]}
	if err := checkHit(page, want, 2); err != nil {
		t.Fatalf("correct page refused: %v", err)
	}
	for name, r := range map[string]response{
		"foreign row":      {cache: "hit", totalRows: 3, rows: []string{rows[0], "<z>\t<z>"}},
		"short page":       {cache: "hit", totalRows: 3, rows: rows[:1]},
		"wrong total_rows": {cache: "hit", totalRows: 2, rows: rows[:2]},
		"executed":         {cache: "miss", cycles: 2, totalRows: 3, rows: rows[:2]},
	} {
		if checkHit(r, want, 2) == nil {
			t.Errorf("checkHit passed a %s", name)
		}
	}

	base, full := hashRows(rows[:1]), want
	if err := checkBetween(response{totalRows: 2, rows: rows[:2]}, base, full); err != nil {
		t.Fatalf("read between base and full refused: %v", err)
	}
	for name, r := range map[string]response{
		"dropped base row": {totalRows: 1, rows: rows[1:2]},
		"extra row":        {totalRows: 3, rows: []string{rows[0], rows[1], "<z>\t<z>"}},
		"duplicated row":   {totalRows: 4, rows: append(append([]string{}, rows...), rows[0])},
		"wrong total_rows": {totalRows: 3, rows: rows[:2]},
	} {
		if checkBetween(r, base, full) == nil {
			t.Errorf("checkBetween passed a %s", name)
		}
	}

	if checkVersion("abc", "abc") != nil || checkVersion("abd", "abc") == nil {
		t.Error("checkVersion does not tell versions apart")
	}
	if checkTriples(10, 10) != nil || checkTriples(11, 10) == nil {
		t.Error("checkTriples does not tell counts apart")
	}
	if checkDFSWrites(4096, 4096) != nil || checkDFSWrites(4097, 4096) == nil || checkDFSWrites(4095, 4096) == nil {
		t.Error("checkDFSWrites misses a total off by one")
	}
}

// TestSecondSeedPasses runs every workload, traced, on a seed other than
// the default for a fraction of a second: all checks must pass, and every
// layer the workload exercises must report a value.
func TestSecondSeedPasses(t *testing.T) {
	exercised := map[string][]string{
		"serve-miss":   {"server.http_overhead_ms", "engine.run_ms", "engine.decode_ms", "mapreduce.map_ms", "server.slot_grants_per_query", "query.format_ms"},
		"serve-hit":    {"sparql.parse_us", "query.compile_us", "server.result_cache_hit_ratio", "go.allocs_per_query"},
		"ingest-mix":   {"ingest.validate_us", "ingest.append_us", "plan.catalog_fold_us", "ingest.compact_ms", "ingest_p50_ms", "compact_p50_ms", "plan.optimize_us", "hdfs.used_bytes"},
		"batch-layout": {"plan.layout_ms", "relmr.run_ms", "ntgamr.run_ms", "mapreduce.map_only_jobs_per_query", "hdfs.read_bytes_per_query"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := w.run(config{seed: 2, seconds: 200 * time.Millisecond, trace: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if rep.wrong != 0 || rep.failed != 0 {
				t.Fatalf("%d wrong answers, %d failed operations: %v %v", rep.wrong, rep.failed, rep.sample, rep.notes)
			}
			for _, d := range endToEnd {
				if rep.e2e[d.name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, rep.e2e[d.name])
				}
			}
			for _, name := range exercised[w.name] {
				if rep.layer[name] <= 0 {
					t.Errorf("per-layer %s = %v, want > 0", name, rep.layer[name])
				}
			}
			if extra := unknownKeys(rep.e2e, endToEnd); len(extra) > 0 {
				t.Errorf("unlisted end-to-end metrics %v", extra)
			}
			if extra := unknownKeys(rep.layer, perLayer); len(extra) > 0 {
				t.Errorf("unlisted per-layer metrics %v", extra)
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload lists
// in step with the ones this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, command has %s", got, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
