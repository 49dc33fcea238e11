package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"ntga/internal/bench"
	"ntga/internal/rdf"
	"ntga/internal/server"
)

// Input sizes. Each workload's dataset comes from the repository's own
// generators (internal/datagen through bench.Dataset) at a fixed scale and
// generator seed: at these scales a different generator seed moves result
// sizes, and with them every latency, by more than a run-to-run bound could
// absorb. The --seed argument draws everything else: the request order of
// every round and the order in which ingest-mix's held-back subjects arrive.
const (
	// dataSeed is the generator seed of every dataset.
	dataSeed = 42
	// roundsPerSequence is how many differently ordered rounds a request
	// sequence holds before it repeats, so that which queries overlap on
	// the two clients averages out over a run.
	roundsPerSequence = 64
	// missScale keeps every no_cache answer far below the 64 MiB response
	// body server.Client reads (the largest, B6, is 11.6 MB here) and lets
	// a 20-second closed-loop run hold 200+ queries.
	missScale = 1
	// hitScale doubles serve-miss's dictionary: hit latency of CONTAINS
	// queries grows with it, because compilation scans the dictionary.
	hitScale = 4
	// hitZipfS is the Zipf exponent of serve-hit's query popularity and
	// hitRoundSize the number of requests one round of it holds.
	hitZipfS     = 1.0
	hitRoundSize = 256
	// hitPage is the number of rows a serve-hit request asks for.
	hitPage = 10
	// ingestScale, ingestHeldBackPct and ingestBatchTriples size ingest-mix:
	// that share of the LifeSci subjects is held back from the base and sent
	// as batches of that many triples; compactEvery batches a compaction runs.
	ingestScale        = 2
	ingestHeldBackPct  = 25
	ingestBatchTriples = 5
	compactEvery       = 10
	// batchScale keeps a round of 28 engine runs near one second, so a run
	// holds 200+ of them.
	batchScale = 1
)

// batchQueries and batchEngines are the paper's engine comparison that
// batch-layout runs over the bucketed layout.
var (
	batchQueries = []string{"Q1a", "B0", "B1", "B3", "B4", "B5", "B7"}
	batchEngines = []string{"Pig", "Hive", "NTGA-Eager", "NTGA-Lazy"}
	// mapOnlyQueries are the O-S chain queries whose NTGA-Lazy cycles must
	// all run map-only, with zero shuffle bytes, over the layout.
	mapOnlyQueries = map[string]bool{"Q1a": true, "B0": true, "B1": true, "B5": true}
)

// catalogSeries returns the catalog queries of one dataset, in catalog order.
func catalogSeries(dataset string) []bench.CatalogQuery {
	var out []bench.CatalogQuery
	for _, q := range bench.Catalog() {
		if q.Dataset == dataset {
			out = append(out, q)
		}
	}
	return out
}

// datasetText generates a dataset and serializes it as N-Triples: the bytes
// a user would hand to ntga-serve -data or ntga-run -data.
func datasetText(name string, scale int) ([]byte, error) {
	g, err := bench.Dataset(name, scale, dataSeed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rng returns a generator for one purpose of one seed, so adding a draw for
// one purpose never shifts another's.
func rng(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// op is one request of a workload round.
type op struct {
	// id is the catalog query ID and engine the batch engine ("" on the
	// serve path, which uses the server's default engine).
	id     string
	engine string
	req    server.Request
}

// sequence repeats a round's operations roundsPerSequence times, each
// time in its own seeded order. Every run attempts whole rounds of it.
func sequence(round []op, seed int64, purpose string) []op {
	r := rng(seed, purpose)
	out := make([]op, 0, len(round)*roundsPerSequence)
	for k := 0; k < roundsPerSequence; k++ {
		for _, j := range r.Perm(len(round)) {
			out = append(out, round[j])
		}
	}
	return out
}

// roundLen is the number of operations in one round of a sequence.
func roundLen(seq []op) int { return len(seq) / roundsPerSequence }

// missSequence is serve-miss's: every BSBM catalog query once per round,
// bypassing the result cache and returning all rows.
func missSequence(seed int64) []op {
	var round []op
	for _, q := range catalogSeries("bsbm") {
		round = append(round, op{id: q.ID, req: server.Request{Query: q.Src, NoCache: true, Metrics: true}})
	}
	return sequence(round, seed, "miss")
}

// zipfCounts splits a round of n requests over k queries by a Zipf law of
// exponent s on their rank, giving every query at least one request.
func zipfCounts(k, n int, s float64) []int {
	var total float64
	for r := 1; r <= k; r++ {
		total += 1 / math.Pow(float64(r), s)
	}
	counts := make([]int, k)
	for r := 1; r <= k; r++ {
		c := int(math.Round(float64(n) / math.Pow(float64(r), s) / total))
		if c < 1 {
			c = 1
		}
		counts[r-1] = c
	}
	return counts
}

// hitSequence is serve-hit's: the BSBM catalog queries with Zipf popularity
// by catalog rank (Q1a most popular), each asking for one page. A round
// holds the exact Zipf counts, so the mix is the same on every seed.
func hitSequence(seed int64) []op {
	qs := catalogSeries("bsbm")
	var round []op
	for i, c := range zipfCounts(len(qs), hitRoundSize, hitZipfS) {
		for j := 0; j < c; j++ {
			round = append(round, op{id: qs[i].ID, req: server.Request{Query: qs[i].Src, Limit: hitPage}})
		}
	}
	return sequence(round, seed, "hit")
}

// readSequence is ingest-mix's reader: the A-series queries once per round,
// with the result cache on and all rows returned.
func readSequence(seed int64) []op {
	var round []op
	for _, q := range catalogSeries("lifesci") {
		round = append(round, op{id: q.ID, req: server.Request{Query: q.Src}})
	}
	return sequence(round, seed, "read")
}

// batchSequence is batch-layout's: every (query, engine) pair of the
// paper's comparison once per round.
func batchSequence(seed int64) []op {
	var round []op
	for _, id := range batchQueries {
		cq, err := bench.Lookup(id)
		if err != nil {
			panic(err) // batchQueries names catalog queries only
		}
		for _, e := range batchEngines {
			round = append(round, op{id: id, engine: e, req: server.Request{Query: cq.Src}})
		}
	}
	return sequence(round, seed, "batch")
}

// ingestInputs is ingest-mix's data: the base text the server loads, and
// the held-back triples as N-Triples batches in send order.
type ingestInputs struct {
	base    []byte
	batches [][]byte
	// batchTriples is the generator's own count of triples in all batches.
	batchTriples int
}

// splitIngest holds back ingestHeldBackPct of the subjects of an N-Triples
// text. Which subjects is fixed, so every seed ends on the same dataset and
// passes through datasets of the same size; the seed orders the held-back
// subjects. Each subject's triples stay together, and the sequence is cut
// into batches of ingestBatchTriples lines.
func splitIngest(text []byte, seed int64) ingestInputs {
	var base bytes.Buffer
	bySubject := map[string][]string{}
	var subjects []string
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		subj, _, _ := strings.Cut(line, " ")
		h := fnv.New64a()
		h.Write([]byte(subj))
		if h.Sum64()%100 >= ingestHeldBackPct {
			base.WriteString(line)
			continue
		}
		if bySubject[subj] == nil {
			subjects = append(subjects, subj)
		}
		bySubject[subj] = append(bySubject[subj], line)
	}
	var held []string
	for _, i := range rng(seed, "held-back-order").Perm(len(subjects)) {
		held = append(held, bySubject[subjects[i]]...)
	}
	in := ingestInputs{base: base.Bytes(), batchTriples: len(held)}
	for i := 0; i < len(held); i += ingestBatchTriples {
		end := min(i+ingestBatchTriples, len(held))
		in.batches = append(in.batches, []byte(strings.Join(held[i:end], "")))
	}
	return in
}
