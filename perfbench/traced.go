package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/ingest"
	"ntga/internal/mapreduce"
	"ntga/internal/ntgamr"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/relmr"
	"ntga/internal/sparql"
	"ntga/internal/trace"
)

// The traced run replays a workload's requests through the same public
// calls the program makes, and records a span around each call. Nothing in
// the program is instrumented for it; the MR span tree comes from the
// mapreduce engine's own Tracer.

// span is one benchmark-recorded interval. Parent is -1 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced replay runs the same code. It is used
// from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].EndNS = int64(time.Since(r.epoch))
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total time.Duration
	self  time.Duration
}

// stats aggregates spans by name. A span's self time is its duration minus
// the part of its interval its children cover.
func (r *recorder) stats() map[string]*spanStat {
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.EndNS - s.StartNS)
		st.count++
		st.total += d
		st.self += d - covered(children[s.ID])
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total, end int64
	for _, s := range spans {
		start := max(s.StartNS, end)
		if s.EndNS > start {
			total += s.EndNS - start
			end = s.EndNS
		}
	}
	return time.Duration(total)
}

// meanMS / meanUS give the mean duration of the spans of one name.
func meanMS(st map[string]*spanStat, name string) float64 {
	if s := st[name]; s != nil && s.count > 0 {
		return ms(s.total) / float64(s.count)
	}
	return 0
}

func meanUS(st map[string]*spanStat, name string) float64 { return 1000 * meanMS(st, name) }

// runStat is one executed query of a replay.
type runStat struct {
	engine    string
	run       time.Duration
	workflow  time.Duration
	cycles    int
	mapOnly   int
	straggler float64
	skew      float64
	readBytes int64
}

// pipeline is the program's query path rebuilt from its public calls over a
// DFS the benchmark owns: sparql.Parse → query.Compile → plan.Optimize →
// engine run → ProjectAll → FormatRow, plus the ingest calls for the write
// path.
type pipeline struct {
	rec    *recorder
	tracer *trace.Tracer
	g      *rdf.Graph
	dfs    *hdfs.DFS
	// mr runs queries (traced when tracer is set); plain runs the layout
	// and compaction jobs, which stay out of the per-query MR numbers.
	mr, plain *mapreduce.Engine
	input     string
	deltas    []string
	part      *plan.Partitioning
	// cat is the catalog the optimizer reads; nil on the batch path, which
	// like ntga-run does not reorder joins.
	cat      *plan.Catalog
	store    *ingest.Store
	catState *plan.CatalogState
	runs     []runStat
}

const tripleInput = "data/triples"

func newPipeline(rec *recorder, tracer *trace.Tracer) *pipeline {
	dfs := hdfs.New(hdfs.Config{Nodes: 8, Replication: 1})
	return &pipeline{
		rec:    rec,
		tracer: tracer,
		dfs:    dfs,
		mr:     mapreduce.NewEngine(dfs, mapreduce.EngineConfig{DefaultReducers: 8, Tracer: tracer}),
		plain:  mapreduce.NewEngine(dfs, mapreduce.EngineConfig{DefaultReducers: 8}),
		input:  tripleInput,
	}
}

// call records fn as a span under parent.
func (p *pipeline) call(name string, parent int, fn func() error) error {
	s := p.rec.start(name, parent)
	err := fn()
	p.rec.end(s)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// setupServe repeats server.New's set-up calls: parse, version, load, the
// dataset manifest and the statistics catalog.
func (p *pipeline) setupServe(text []byte) error {
	root := p.rec.start("setup", -1)
	defer p.rec.end(root)
	err := p.call("rdf.ReadNTriples", root, func() (err error) {
		p.g, err = rdf.ReadNTriples(bytes.NewReader(text))
		return err
	})
	if err != nil {
		return err
	}
	p.call("rdf.Graph.Version", root, func() error { p.g.Version(); return nil })
	if err := p.call("engine.LoadGraph", root, func() error { return engine.LoadGraph(p.dfs, p.input, p.g) }); err != nil {
		return err
	}
	err = p.call("ingest.Init", root, func() (err error) {
		p.store, err = ingest.Init(p.dfs, p.input, p.g)
		return err
	})
	if err != nil {
		return err
	}
	p.call("plan.FromGraph", root, func() error { p.cat = plan.FromGraph(p.g); return nil })
	p.call("plan.StateFromGraph", root, func() error { p.catState = plan.StateFromGraph(p.g); return nil })
	return nil
}

// setupBatch repeats ntga-run's set-up: parse, load and the bucketed layout.
func (p *pipeline) setupBatch(text []byte) error {
	root := p.rec.start("setup", -1)
	defer p.rec.end(root)
	err := p.call("rdf.ReadNTriples", root, func() (err error) {
		p.g, err = rdf.ReadNTriples(bytes.NewReader(text))
		return err
	})
	if err != nil {
		return err
	}
	var version string
	p.call("rdf.Graph.Version", root, func() error { version = p.g.Version(); return nil })
	if err := p.call("engine.LoadGraph", root, func() error { return engine.LoadGraph(p.dfs, p.input, p.g) }); err != nil {
		return err
	}
	return p.call("plan.BuildPartitionLayout", root, func() (err error) {
		p.part, err = plan.BuildPartitionLayout(p.plain, p.input, layoutDir, layoutBuckets, version)
		return err
	})
}

// newEngine maps a batch engine name to a fresh engine; "" is the server's
// default engine (ntga-lazy).
func newEngine(name string) (engine.QueryEngine, error) {
	switch name {
	case "Pig":
		return relmr.NewPig(), nil
	case "Hive":
		return relmr.NewHive(), nil
	case "NTGA-Eager":
		return ntgamr.NewEager(), nil
	case "NTGA-Lazy", "":
		return ntgamr.NewLazy(), nil
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

// query replays one request. cached marks a request the server answers
// from its result cache: it still parses and compiles, and stops there.
func (p *pipeline) query(x op, cached bool) error {
	root := p.rec.start("request "+x.id, -1)
	defer p.rec.end(root)
	var pq *sparql.Query
	var q *query.Query
	err := p.call("sparql.Parse", root, func() (err error) { pq, err = sparql.Parse(x.req.Query); return err })
	if err != nil {
		return err
	}
	if err := p.call("query.Compile", root, func() (err error) { q, err = query.Compile(pq, p.g.Dict); return err }); err != nil {
		return err
	}
	if cached {
		return nil
	}
	if p.cat != nil {
		err := p.call("plan.Optimize", root, func() error {
			r, err := plan.Optimize(p.cat, q)
			if err != nil {
				return err
			}
			if r.Changed {
				if joins, err := q.JoinsForOrder(r.Order); err == nil {
					q.Joins = joins
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	eng, err := newEngine(x.engine)
	if err != nil {
		return err
	}
	before := p.dfs.Metrics().BytesRead
	var res *engine.Result
	start := time.Now()
	err = p.call("engine.Run", root, func() (err error) {
		res, err = engine.RunWithDeltas(eng, p.mr, q, p.input, p.deltas, p.part)
		return err
	})
	run := time.Since(start)
	if err != nil {
		return err
	}
	st := runStat{
		engine:    eng.Name(),
		run:       run,
		workflow:  res.Workflow.Duration,
		cycles:    len(res.Workflow.Jobs),
		straggler: res.Workflow.MaxStragglerRatio(),
		skew:      res.Workflow.MaxReduceByteSkew(),
		readBytes: p.dfs.Metrics().BytesRead - before,
	}
	for _, j := range res.Workflow.Jobs {
		if j.MapOnly {
			st.mapOnly++
		}
	}
	p.runs = append(p.runs, st)
	var projected []query.Row
	p.call("query.ProjectAll", root, func() error { projected = q.ProjectAll(res.Rows); return nil })
	rendered := make([]string, len(projected))
	p.call("query.FormatRow", root, func() error {
		for i, r := range projected {
			rendered[i] = q.FormatRow(r)
		}
		return nil
	})
	return nil
}

// ingestBatch replays one POST /ingest: validate, append a delta block,
// fold the batch into the catalog state and re-derive the catalog.
func (p *pipeline) ingestBatch(b []byte) error {
	root := p.rec.start("ingest", -1)
	defer p.rec.end(root)
	if err := p.call("ingest.ValidateBatch", root, func() error { _, err := ingest.ValidateBatch(bytes.NewReader(b)); return err }); err != nil {
		return err
	}
	var res *ingest.Result
	if err := p.call("ingest.Store.Ingest", root, func() (err error) { res, err = p.store.Ingest(bytes.NewReader(b)); return err }); err != nil {
		return err
	}
	p.call("plan.CatalogState.fold", root, func() error {
		for _, t := range res.Triples {
			p.catState.AddTriple(p.g.Dict, t)
		}
		p.cat = p.catState.Catalog()
		return nil
	})
	p.deltas = p.store.DeltaFiles()
	return nil
}

// compact replays one POST /compact.
func (p *pipeline) compact() error {
	err := p.call("ingest.Store.Compact", -1, func() error {
		_, err := p.store.Compact(p.plain, ingest.CompactOptions{})
		return err
	})
	p.input, p.deltas = p.store.Base(), nil
	return err
}

// replayFunc drives one replay of a workload through a pipeline.
type replayFunc func(p *pipeline) error

// tracedReplay runs the replay traced and then untraced, each on a fresh
// pipeline that setup prepares, reports the ratio of their wall times as the
// tracing overhead, fills the per-layer metrics from the traced one and
// writes its spans.
func tracedReplay(c config, name string, rep *report, setup, replay replayFunc) error {
	run := func(rec *recorder, tracer *trace.Tracer) (*pipeline, time.Duration, error) {
		p := newPipeline(rec, tracer)
		if err := setup(p); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		err := replay(p)
		return p, time.Since(start), err
	}
	rec, tracer := newRecorder(), trace.New()
	p, traced, err := run(rec, tracer)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	_, untraced, err := run(nil, nil)
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	overhead := ratio(traced.Seconds(), untraced.Seconds())
	rep.layer["trace.overhead_ratio"] = overhead
	rep.notef("tracing overhead: traced replay %.1f ms vs untraced %.1f ms (ratio %.3f)", ms(traced), ms(untraced), overhead)
	p.layers(rep)
	return writeSpans(c, name, rep, rec, tracer)
}

// spanSummary is one span name's line in the span file.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layers fills the per-layer metrics a replay measured.
func (p *pipeline) layers(rep *report) {
	st := p.rec.stats()
	L := rep.layer
	L["rdf.parse_ms"] = meanMS(st, "rdf.ReadNTriples")
	L["rdf.version_ms"] = meanMS(st, "rdf.Graph.Version")
	L["engine.load_ms"] = meanMS(st, "engine.LoadGraph")
	L["plan.catalog_ms"] = meanMS(st, "plan.FromGraph")
	L["ingest.init_ms"] = meanMS(st, "ingest.Init")
	L["plan.layout_ms"] = meanMS(st, "plan.BuildPartitionLayout")
	L["sparql.parse_us"] = meanUS(st, "sparql.Parse")
	L["query.compile_us"] = meanUS(st, "query.Compile")
	L["plan.optimize_us"] = meanUS(st, "plan.Optimize")
	L["engine.run_ms"] = meanMS(st, "engine.Run")
	L["query.project_ms"] = meanMS(st, "query.ProjectAll")
	L["query.format_ms"] = meanMS(st, "query.FormatRow")
	L["ingest.validate_us"] = meanUS(st, "ingest.ValidateBatch")
	L["ingest.append_us"] = meanUS(st, "ingest.Store.Ingest")
	L["plan.catalog_fold_us"] = meanUS(st, "plan.CatalogState.fold")
	L["ingest.compact_ms"] = meanMS(st, "ingest.Store.Compact")
	L["hdfs.used_bytes"] = float64(p.dfs.Used())

	n := float64(len(p.runs))
	var decode, cycles, mapOnly, straggler, skew, read float64
	var rel, ntga []float64
	for _, r := range p.runs {
		decode += ms(r.run - r.workflow)
		cycles += float64(r.cycles)
		mapOnly += float64(r.mapOnly)
		straggler += r.straggler
		skew += r.skew
		read += float64(r.readBytes)
		switch r.engine {
		case "Pig", "Hive":
			rel = append(rel, ms(r.run))
		default:
			ntga = append(ntga, ms(r.run))
		}
	}
	L["engine.decode_ms"] = ratio(decode, n)
	L["mapreduce.cycles_per_query"] = ratio(cycles, n)
	L["mapreduce.map_only_jobs_per_query"] = ratio(mapOnly, n)
	L["mapreduce.straggler_ratio"] = ratio(straggler, n)
	L["mapreduce.reduce_byte_skew"] = ratio(skew, n)
	L["hdfs.read_bytes_per_query"] = ratio(read, n)
	L["relmr.run_ms"] = mean(rel)
	L["ntgamr.run_ms"] = mean(ntga)

	// The MR engine's own span tree: phase time summed over task spans.
	phase := map[trace.Kind]time.Duration{}
	tasks := 0
	for _, root := range p.tracer.Roots() {
		root.Walk(func(s *trace.Span, _ int) {
			if s.Kind == trace.KindTask {
				tasks++
			}
			phase[s.Kind] += s.Duration()
		})
	}
	L["mapreduce.scan_ms"] = ratio(ms(phase[trace.KindScan]), n)
	L["mapreduce.map_ms"] = ratio(ms(phase[trace.KindMap]), n)
	L["mapreduce.sort_ms"] = ratio(ms(phase[trace.KindSort]+phase[trace.KindSpill]+phase[trace.KindMerge]), n)
	L["mapreduce.reduce_ms"] = ratio(ms(phase[trace.KindReduce]), n)
	L["mapreduce.write_ms"] = ratio(ms(phase[trace.KindWrite]), n)
	L["mapreduce.commit_ms"] = ratio(ms(phase[trace.KindCommit]), n)
	L["mapreduce.tasks_per_query"] = ratio(float64(tasks), n)
}

// writeSpans writes the traced run's per-layer numbers, each span name's
// count, total and self time, the spans themselves and the MR span tree to
// one JSON file under the output directory.
func writeSpans(c config, name string, rep *report, rec *recorder, tracer *trace.Tracer) error {
	bySpan := map[string]spanSummary{}
	for n, st := range rec.stats() {
		bySpan[n] = spanSummary{Count: st.count, TotalMS: ms(st.total), SelfMS: ms(st.self)}
	}
	doc := struct {
		Workload  string                 `json:"workload"`
		Seed      int64                  `json:"seed"`
		PerLayer  map[string]float64     `json:"per_layer"`
		BySpan    map[string]spanSummary `json:"by_span"`
		Spans     []span                 `json:"spans"`
		MapReduce []trace.ChromeEvent    `json:"mapreduce_spans"`
	}{name, c.seed, rep.layer, bySpan, rec.spans, trace.ChromeEvents(tracer.Roots(), rec.epoch)}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d.spans.json", name, c.seed))
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	rep.notef("spans written to %s (%d benchmark spans)", path, len(rec.spans))
	return nil
}
