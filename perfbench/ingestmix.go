package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ntga/internal/server"
)

// runIngestMix measures reads beside writes: a writer sends the held-back
// share of a LifeSci dataset as N-Triples batches on a fixed schedule (open
// loop) with a compaction every compactEvery batches, while one closed-loop
// reader runs the A-series queries with the result cache on.
func runIngestMix(c config) (*report, error) {
	text, err := datasetText("lifesci", ingestScale)
	if err != nil {
		return nil, err
	}
	in := splitIngest(text, c.seed)
	seq := readSequence(c.seed)
	round := seq[:roundLen(seq)]
	rep := newReport()

	runtime.GC()
	svc, setup, err := startService(in.base)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	rep.e2e["setup_s"] = setup.Seconds()

	// Reads taken while batches arrive lie between the base-only and the
	// full-graph answers; the version and triple count of the full graph
	// are what the server must end on.
	baseOrc, err := newOracle(in.base)
	if err != nil {
		return nil, err
	}
	baseTriples := int64(baseOrc.g.Len())
	baseWant, err := baseOrc.answers(round)
	if err != nil {
		return nil, err
	}
	baseOrc = nil
	fullOrc, err := newOracle(bytes.Join(append([][]byte{in.base}, in.batches...), nil))
	if err != nil {
		return nil, err
	}
	wantVersion := fullOrc.g.Version()
	fullWant, err := fullOrc.answers(round)
	if err != nil {
		return nil, err
	}
	fullOrc = nil

	ctx := context.Background()
	// chain is the delta-chain length the writer last left behind; each
	// read samples it as the chain it reads across.
	var chain atomic.Int64
	var chainSum atomic.Int64
	each := func(i int) (time.Duration, error) {
		x := seq[i%len(seq)]
		chainSum.Add(chain.Load())
		start := time.Now()
		resp, err := svc.client.Query(ctx, x.req)
		lat := time.Since(start)
		if err != nil {
			return lat, fmt.Errorf("%s: %w", x.id, err)
		}
		rep.check(x.id, checkBetween(fromServer(resp), baseWant[x.id], fullWant[x.id]))
		return lat, nil
	}
	rep.addLoop(closedLoop(1, len(round), 0, nil, each))
	chainSum.Store(0)

	snap0 := svc.srv.Snapshot()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var w writerResult
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		w = runWriter(ctx, svc.client, in.batches, c.seconds, &chain)
	}()
	l := closedLoop(1, len(round), c.seconds, writerDone.Load, each)
	wg.Wait()
	runtime.ReadMemStats(&mem1)
	snap1 := svc.srv.Snapshot()

	rep.addLoop(l)
	rep.setLatencies(l, seq)
	rep.attempted += w.attempted
	rep.failed += w.failed
	if w.firstErr != nil {
		rep.notef("first failed write: %v", w.firstErr)
	}
	ops := l.attempted + w.attempted
	goLayers(rep, &mem0, &mem1, ops)
	serverLayers(rep, snap0, snap1, l.attempted)
	rep.layer["ingest_p50_ms"] = quantile(w.ingest, 0.5)
	rep.layer["compact_p50_ms"] = quantile(w.compact, 0.5)
	rep.layer["ingest.send_late_p95_ms"] = quantile(w.late, 0.95)
	rep.layer["server.cache_evicted_per_ingest"] = ratio(float64(w.evicted), float64(len(w.ingest)))
	rep.layer["server.cache_retained_per_ingest"] = ratio(float64(w.retained), float64(len(w.ingest)))
	rep.layer["server.delta_blocks_at_read"] = ratio(float64(chainSum.Load()), float64(l.attempted))
	rep.notef("writer: %d batches of %d triples every %.1f ms, compaction every %d; send lateness p95 %.2f ms",
		len(in.batches), ingestBatchTriples, ms(c.seconds)/float64(len(in.batches)), compactEvery, quantile(w.late, 0.95))

	// After the writer: one last compaction, then every read must equal the
	// full-graph answer exactly, and the served version and triple count
	// must be those of the whole dataset.
	var tally byteTally
	rep.attempted++
	if _, err := svc.client.Compact(ctx); err != nil {
		rep.failed++
		rep.notef("final compaction failed: %v", err)
	}
	for _, x := range round {
		rep.attempted++
		req := x.req
		req.NoCache, req.Metrics = true, true
		resp, err := svc.client.Query(ctx, req)
		if err != nil {
			rep.failed++
			rep.notef("final read %s failed: %v", x.id, err)
			continue
		}
		rep.check("final "+x.id, checkExact(resp.Rows, fullWant[x.id]))
		tally.add(resp)
	}
	tally.report(rep)
	// Measured here rather than as the writer stops: which answers the
	// result cache holds at that instant depends on timing, while the check
	// reads above leave it holding exactly one entry per A-series query.
	rep.e2e["heap_live_mb"] = liveHeapMB()
	rep.attempted++
	m, err := svc.client.Metrics(ctx)
	if err != nil {
		rep.failed++
		rep.notef("final metrics failed: %v", err)
	} else {
		rep.check("dataset version", checkVersion(m.DatasetVersion, wantVersion))
		rep.check("triple count", checkTriples(m.Triples, baseTriples+int64(in.batchTriples)))
	}

	if !c.trace {
		return rep, nil
	}
	noCache := make([]op, len(round))
	for i, x := range round {
		noCache[i] = x
		noCache[i].req.NoCache = true
	}
	if err := httpOverhead(rep, svc, noCache); err != nil {
		return nil, err
	}
	replay := func(p *pipeline) error {
		reads := 0
		for i, b := range in.batches {
			if err := p.ingestBatch(b); err != nil {
				return err
			}
			if (i+1)%readEveryBatches == 0 {
				x := round[reads%len(round)]
				reads++
				if err := p.query(x, false); err != nil {
					return fmt.Errorf("%s: %w", x.id, err)
				}
			}
			if (i+1)%compactEvery == 0 {
				if err := p.compact(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	setupFn := func(p *pipeline) error { return p.setupServe(in.base) }
	return rep, tracedReplay(c, "ingest-mix", rep, setupFn, replay)
}

// readEveryBatches spaces the traced replay's reads: one after every that
// many batches, so reads see delta chains of several lengths.
const readEveryBatches = 5

// writerResult is what the open-loop writer measured.
type writerResult struct {
	ingest, compact, late []float64 // ms
	evicted, retained     int
	attempted, failed     int
	firstErr              error
}

// runWriter sends batch i at start + i·(d / batches), whatever happened to
// earlier ones, and times each ingest from its scheduled send time, so a
// stall shows in the batches behind it. A compaction follows every
// compactEvery-th batch.
func runWriter(ctx context.Context, client *server.Client, batches [][]byte, d time.Duration, chain *atomic.Int64) writerResult {
	var w writerResult
	fail := func(err error) {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
	interval := d / time.Duration(len(batches))
	start := time.Now()
	for i, b := range batches {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		w.late = append(w.late, ms(time.Since(due)))
		w.attempted++
		res, err := client.Ingest(ctx, bytes.NewReader(b))
		if err != nil {
			fail(fmt.Errorf("ingest batch %d: %w", i, err))
			continue
		}
		w.ingest = append(w.ingest, ms(time.Since(due)))
		w.evicted += res.CacheEvicted
		w.retained += res.CacheRetained
		chain.Store(int64(res.DeltaBlocks))
		if (i+1)%compactEvery == 0 {
			w.attempted++
			t := time.Now()
			if _, err := client.Compact(ctx); err != nil {
				fail(fmt.Errorf("compaction after batch %d: %w", i, err))
				continue
			}
			w.compact = append(w.compact, ms(time.Since(t)))
			chain.Store(0)
		}
	}
	return w
}
