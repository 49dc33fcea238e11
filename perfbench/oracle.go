package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/refengine"
	"ntga/internal/sparql"
)

// answer is one query's expected result: the sorted 64-bit hashes of its
// rendered rows, a multiset. Keeping hashes rather than rows keeps the
// benchmark's own retained heap small next to the program's.
type answer []uint64

// rowHash hashes one rendered row (tab-separated terms, as server.Response
// and query.FormatRow render it).
func rowHash(row string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(row))
	return h.Sum64()
}

// hashRows returns the sorted hashes of rendered rows.
func hashRows(rows []string) answer {
	out := make(answer, len(rows))
	for i, r := range rows {
		out[i] = rowHash(r)
	}
	slices.Sort(out)
	return out
}

// oracle evaluates queries with refengine over the benchmark's own parse of
// the data, apart from every code path the benchmark measures.
type oracle struct {
	g *rdf.Graph
}

func newOracle(text []byte) (*oracle, error) {
	g, err := rdf.ReadNTriples(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("oracle: parsing data: %w", err)
	}
	return &oracle{g: g}, nil
}

// eval returns the expected rendered-row hashes of a SPARQL query.
func (o *oracle) eval(src string) (answer, error) {
	pq, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	q, err := query.Compile(pq, o.g.Dict)
	if err != nil {
		return nil, err
	}
	rows := q.ProjectAll(refengine.Evaluate(q, o.g))
	out := make(answer, len(rows))
	for i, r := range rows {
		out[i] = rowHash(q.FormatRow(r))
	}
	slices.Sort(out)
	return out, nil
}

// answers evaluates every distinct query of the rounds, keyed by query ID,
// on two goroutines. refengine only reads the graph, and the graph's
// dictionary is safe for concurrent lookups.
func (o *oracle) answers(rounds ...[]op) (map[string]answer, error) {
	srcs := map[string]string{}
	var ids []string
	for _, r := range rounds {
		for _, x := range r {
			if _, ok := srcs[x.id]; !ok {
				srcs[x.id] = x.req.Query
				ids = append(ids, x.id)
			}
		}
	}
	out := make(map[string]answer, len(ids))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range next {
				a, err := o.eval(srcs[id])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle %s: %w", id, err)
				}
				out[id] = a
				mu.Unlock()
			}
		}()
	}
	for _, id := range ids {
		next <- id
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// checkExact fails unless got holds exactly the expected rows.
func checkExact(got []string, want answer) error {
	g := hashRows(got)
	if len(g) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(g), len(want))
	}
	if !slices.Equal(g, want) {
		missing, extra := diffCounts(g, want)
		return fmt.Errorf("rows differ: %d missing, %d unexpected", missing, extra)
	}
	return nil
}

// checkSubset fails unless every row of got is in want, counting repeats
// (got ⊆ want as multisets). Both must be sorted.
func checkSubset(got, want answer) error {
	if missing, _ := diffCounts(want, got); missing > 0 {
		return fmt.Errorf("%d rows not in the expected answer", missing)
	}
	return nil
}

// diffCounts merges two sorted hash lists and counts the entries of want
// missing from got, and the entries of got not in want.
func diffCounts(got, want answer) (missing, extra int) {
	i, j := 0, 0
	for i < len(got) && j < len(want) {
		switch {
		case got[i] == want[j]:
			i++
			j++
		case got[i] < want[j]:
			extra++
			i++
		default:
			missing++
			j++
		}
	}
	return missing + len(want) - j, extra + len(got) - i
}

// checkMiss checks a serve-miss response: all rows, executed by MR, with the
// result cache bypassed.
func checkMiss(r response, want answer) error {
	if r.cache != "bypass" {
		return fmt.Errorf("cache %q, want bypass", r.cache)
	}
	if r.cycles <= 0 {
		return fmt.Errorf("%d MR cycles, want > 0", r.cycles)
	}
	if r.totalRows != len(want) {
		return fmt.Errorf("total_rows %d, want %d", r.totalRows, len(want))
	}
	return checkExact(r.rows, want)
}

// checkHit checks a serve-hit response: a result-cache hit with no MR
// cycle, the full answer's row count, and a page of rows from that answer.
func checkHit(r response, want answer, page int) error {
	if r.cache != "hit" || r.cycles != 0 {
		return fmt.Errorf("cache %q with %d MR cycles, want a hit with 0", r.cache, r.cycles)
	}
	if r.totalRows != len(want) {
		return fmt.Errorf("total_rows %d, want %d", r.totalRows, len(want))
	}
	if n := min(page, len(want)); len(r.rows) != n {
		return fmt.Errorf("%d rows on the page, want %d", len(r.rows), n)
	}
	return checkSubset(hashRows(r.rows), want)
}

// checkBetween checks an ingest-mix read taken while batches arrive: basic
// graph patterns are monotone under inserts, so the answer must hold every
// base-only row and nothing outside the full-graph answer.
func checkBetween(r response, base, full answer) error {
	got := hashRows(r.rows)
	if r.totalRows != len(got) {
		return fmt.Errorf("total_rows %d but %d rows returned", r.totalRows, len(got))
	}
	if err := checkSubset(base, got); err != nil {
		return fmt.Errorf("base-only answer not contained: %w", err)
	}
	if err := checkSubset(got, full); err != nil {
		return fmt.Errorf("not contained in the full-graph answer: %w", err)
	}
	return nil
}

// checkVersion compares the served dataset version with the version of a
// fresh parse of the base text followed by every batch.
func checkVersion(got, want string) error {
	if got != want {
		return fmt.Errorf("dataset_version %s, want %s", got, want)
	}
	return nil
}

// checkTriples compares the served triple count with base + batch triples.
func checkTriples(got, want int64) error {
	if got != want {
		return fmt.Errorf("%d triples served, want %d", got, want)
	}
	return nil
}

// checkDFSWrites compares the DFS's bytes-written counter delta over one
// batch run with the workflow's reduce-output byte total.
func checkDFSWrites(delta, reduceOutput int64) error {
	if delta != reduceOutput {
		return fmt.Errorf("DFS wrote %d bytes but the workflow reports %d reduce-output bytes", delta, reduceOutput)
	}
	return nil
}
