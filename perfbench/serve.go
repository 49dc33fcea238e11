package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"ntga/internal/server"
)

// byteTally sums the paper's per-query cost counters over executed queries.
type byteTally struct {
	shuffle, dfsWrite, n atomic.Int64
}

func (t *byteTally) add(r *server.Response) {
	t.shuffle.Add(r.ShuffleBytes)
	t.dfsWrite.Add(dfsWrites(r))
	t.n.Add(1)
}

func (t *byteTally) report(rep *report) {
	n := float64(t.n.Load())
	rep.e2e["shuffle_bytes_per_query"] = ratio(float64(t.shuffle.Load()), n)
	rep.e2e["dfs_write_bytes_per_query"] = ratio(float64(t.dfsWrite.Load()), n)
}

// goLayers reports the Go runtime's allocation and GC counts over a timed
// region of n queries.
func goLayers(rep *report, before, after *runtime.MemStats, n int) {
	rep.layer["go.alloc_bytes_per_query"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(n))
	rep.layer["go.allocs_per_query"] = ratio(float64(after.Mallocs-before.Mallocs), float64(n))
	rep.layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
}

// serverLayers reports the server's own counters over a timed region of n
// queries, from two Snapshot calls around it.
func serverLayers(rep *report, before, after server.Metrics, n int) {
	hitRatio := func(b, a server.CacheStats) float64 {
		hits := float64(a.Hits - b.Hits)
		return ratio(hits, hits+float64(a.Misses-b.Misses))
	}
	rep.layer["server.plan_cache_hit_ratio"] = hitRatio(before.PlanCache, after.PlanCache)
	rep.layer["server.result_cache_hit_ratio"] = hitRatio(before.ResultCache, after.ResultCache)
	var p95 float64
	for _, w := range after.QueueWait {
		p95 = max(p95, w.P95MS)
	}
	rep.layer["server.queue_wait_p95_ms"] = p95
	rep.layer["server.slot_grants_per_query"] = ratio(float64(after.SlotGrants-before.SlotGrants), float64(n))
}

func runServeMiss(c config) (*report, error) {
	text, err := datasetText("bsbm", missScale)
	if err != nil {
		return nil, err
	}
	return runServe(c, "serve-miss", text, missSequence(c.seed), false)
}

func runServeHit(c config) (*report, error) {
	text, err := datasetText("bsbm", hitScale)
	if err != nil {
		return nil, err
	}
	return runServe(c, "serve-hit", text, hitSequence(c.seed), true)
}

// runServe measures a closed loop of clients sending one workload's rounds
// over HTTP. With hit set, the result cache is filled before timing and
// every timed request must be a hit; otherwise every request bypasses it.
func runServe(c config, name string, text []byte, seq []op, hit bool) (*report, error) {
	rep := newReport()
	round := seq[:roundLen(seq)]
	runtime.GC()
	svc, setup, err := startService(text)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	rep.e2e["setup_s"] = setup.Seconds()

	orc, err := newOracle(text)
	if err != nil {
		return nil, err
	}
	want, err := orc.answers(seq)
	if err != nil {
		return nil, err
	}
	orc = nil

	ctx := context.Background()
	var tally byteTally
	if hit {
		// The fill executes every catalog query once; its MR cost is the
		// workload's cost per executed query.
		for _, cq := range catalogSeries("bsbm") {
			rep.attempted++
			resp, err := svc.srv.Evaluate(ctx, server.Request{Query: cq.Src, Metrics: true})
			if err != nil {
				rep.failed++
				rep.notef("cache fill %s failed: %v", cq.ID, err)
				continue
			}
			r := fromServer(resp)
			if r.cache != "miss" || r.cycles == 0 {
				rep.check("fill "+cq.ID, fmt.Errorf("cache %q with %d cycles, want an executed miss", r.cache, r.cycles))
			}
			rep.check("fill "+cq.ID, checkExact(r.rows, want[cq.ID]))
			tally.add(resp)
		}
	}
	do := func(x op) (time.Duration, error) {
		start := time.Now()
		resp, err := svc.client.Query(ctx, x.req)
		lat := time.Since(start)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", x.id, err)
		}
		if hit {
			rep.check(x.id, checkHit(fromServer(resp), want[x.id], hitPage))
		} else {
			rep.check(x.id, checkMiss(fromServer(resp), want[x.id]))
			tally.add(resp)
		}
		return lat, nil
	}
	each := func(i int) (time.Duration, error) { return do(seq[i%len(seq)]) }

	// One untimed round warms the plan cache and the process.
	rep.addLoop(closedLoop(1, len(round), 0, nil, each))
	if !hit {
		tally = byteTally{}
	}

	snap0 := svc.srv.Snapshot()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	l := closedLoop(clientCount(), len(round), c.seconds, nil, each)
	runtime.ReadMemStats(&mem1)
	rep.e2e["heap_live_mb"] = liveHeapMB()
	snap1 := svc.srv.Snapshot()

	rep.addLoop(l)
	rep.setLatencies(l, seq)
	tally.report(rep)
	goLayers(rep, &mem0, &mem1, l.attempted)
	serverLayers(rep, snap0, snap1, l.attempted)

	if !c.trace {
		return rep, nil
	}
	if err := httpOverhead(rep, svc, round); err != nil {
		return nil, err
	}
	replay := func(p *pipeline) error {
		seen := map[string]bool{}
		for _, x := range round {
			if err := p.query(x, hit && seen[x.id]); err != nil {
				return fmt.Errorf("%s: %w", x.id, err)
			}
			seen[x.id] = true
		}
		return nil
	}
	setupFn := func(p *pipeline) error { return p.setupServe(text) }
	return rep, tracedReplay(c, name, rep, setupFn, replay)
}

// httpOverhead replays one round twice per request, through server.Client
// and through Server.Evaluate, and reports the mean difference: what the
// HTTP hop and JSON encoding add to a query.
func httpOverhead(rep *report, svc *service, round []op) error {
	ctx := context.Background()
	var diff time.Duration
	for _, x := range round {
		start := time.Now()
		if _, err := svc.client.Query(ctx, x.req); err != nil {
			return fmt.Errorf("http replay %s: %w", x.id, err)
		}
		viaHTTP := time.Since(start)
		start = time.Now()
		if _, err := svc.srv.Evaluate(ctx, x.req); err != nil {
			return fmt.Errorf("in-process replay %s: %w", x.id, err)
		}
		diff += viaHTTP - time.Since(start)
	}
	rep.layer["server.http_overhead_ms"] = ms(diff) / float64(len(round))
	return nil
}
