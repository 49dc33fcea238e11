package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ntga/internal/engine"
	"ntga/internal/hdfs"
	"ntga/internal/mapreduce"
	"ntga/internal/plan"
	"ntga/internal/query"
	"ntga/internal/rdf"
	"ntga/internal/sparql"
)

// The bucketed layout batch-layout builds, as ntga-run -partition-buckets 8
// does with its default -partition-out.
const (
	layoutDir     = "part/T"
	layoutBuckets = 8
)

// runBatchLayout measures ntga-run's batch path: one client runs the
// paper's engines over a hash-of-subject bucketed layout.
func runBatchLayout(c config) (*report, error) {
	text, err := datasetText("bsbm", batchScale)
	if err != nil {
		return nil, err
	}
	seq := batchSequence(c.seed)
	round := seq[:roundLen(seq)]
	rep := newReport()

	runtime.GC()
	start := time.Now()
	g, err := rdf.ReadNTriples(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	mr := mapreduce.NewEngine(hdfs.New(hdfs.Config{Nodes: 8, Replication: 1}), mapreduce.EngineConfig{})
	if err := engine.LoadGraph(mr.DFS(), tripleInput, g); err != nil {
		return nil, err
	}
	part, err := plan.BuildPartitionLayout(mr, tripleInput, layoutDir, layoutBuckets, g.Version())
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = time.Since(start).Seconds()

	orc, err := newOracle(text)
	if err != nil {
		return nil, err
	}
	want, err := orc.answers(seq)
	if err != nil {
		return nil, err
	}
	orc = nil

	var shuffle, dfsWrite, executed int64
	each := func(i int) (time.Duration, error) {
		x := seq[i%len(seq)]
		what := x.id + "/" + x.engine
		eng, err := newEngine(x.engine)
		if err != nil {
			return 0, err
		}
		before := mr.DFS().Metrics().BytesWritten
		start := time.Now()
		rows, res, err := runBatch(mr, g, eng, x.req.Query, part)
		lat := time.Since(start)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", what, err)
		}
		wf := &res.Workflow
		rep.check(what, checkExact(rows, want[x.id]))
		rep.check(what, checkDFSWrites(mr.DFS().Metrics().BytesWritten-before, wf.TotalReduceOutputBytes()))
		if x.engine == "NTGA-Lazy" && mapOnlyQueries[x.id] {
			rep.check(what, checkMapOnly(wf))
		}
		shuffle += wf.TotalMapOutputBytes()
		dfsWrite += wf.TotalReduceOutputBytes()
		executed++
		return lat, nil
	}

	rep.addLoop(closedLoop(1, len(round), 0, nil, each))
	shuffle, dfsWrite, executed = 0, 0, 0

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	l := closedLoop(1, len(round), c.seconds, nil, each)
	runtime.ReadMemStats(&mem1)
	rep.e2e["heap_live_mb"] = liveHeapMB()

	rep.addLoop(l)
	rep.setLatencies(l, seq)
	rep.e2e["shuffle_bytes_per_query"] = ratio(float64(shuffle), float64(executed))
	rep.e2e["dfs_write_bytes_per_query"] = ratio(float64(dfsWrite), float64(executed))
	goLayers(rep, &mem0, &mem1, l.attempted)
	runtime.KeepAlive(g)

	if !c.trace {
		return rep, nil
	}
	replay := func(p *pipeline) error {
		for _, x := range round {
			if err := p.query(x, false); err != nil {
				return fmt.Errorf("%s/%s: %w", x.id, x.engine, err)
			}
		}
		return nil
	}
	setupFn := func(p *pipeline) error { return p.setupBatch(text) }
	return rep, tracedReplay(c, "batch-layout", rep, setupFn, replay)
}

// runBatch is one ntga-run invocation after set-up: parse and compile the
// query, run it over the layout, and render the projected rows.
func runBatch(mr *mapreduce.Engine, g *rdf.Graph, eng engine.QueryEngine, src string, part *plan.Partitioning) ([]string, *engine.Result, error) {
	pq, err := sparql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	q, err := query.Compile(pq, g.Dict)
	if err != nil {
		return nil, nil, err
	}
	res, err := engine.RunMaybePartitioned(eng, mr, q, tripleInput, part)
	if err != nil {
		return nil, nil, err
	}
	projected := q.ProjectAll(res.Rows)
	rows := make([]string, len(projected))
	for i, r := range projected {
		rows[i] = q.FormatRow(r)
	}
	return rows, res, nil
}

// checkMapOnly fails unless every cycle of the workflow ran map-only and
// nothing was shuffled.
func checkMapOnly(wf *mapreduce.WorkflowMetrics) error {
	for _, j := range wf.Jobs {
		if !j.MapOnly {
			return fmt.Errorf("job %s shuffled (%d bytes); the layout should make it map-only", j.Job, j.MapOutputBytes)
		}
	}
	if b := wf.TotalMapOutputBytes(); b != 0 {
		return fmt.Errorf("%d shuffle bytes over the bucketed layout, want 0", b)
	}
	return nil
}
