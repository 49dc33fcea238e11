package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ntga/internal/rdf"
	"ntga/internal/server"
)

// dispenser hands out operation indices to closed-loop clients. It only
// stops at a round boundary, so every run attempts whole rounds: index i is
// operation i mod the round length.
type dispenser struct {
	mu       sync.Mutex
	next     int
	stop     int
	round    int
	deadline time.Time
	// done, when set, must also hold before the loop may stop.
	done func() bool
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop < 0 && d.next > 0 && d.next%d.round == 0 && time.Now().After(d.deadline) && (d.done == nil || d.done()) {
		d.stop = d.next
	}
	if d.stop >= 0 && d.next >= d.stop {
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// loopResult is what a closed loop measured.
type loopResult struct {
	latencies []float64       // ms, one per successful operation
	ops       []int           // the operation index of each latency
	ends      []time.Duration // when each operation completed, from the loop's start
	attempted int
	failed    int
	elapsed   time.Duration
	firstErr  error
}

// closedLoop runs clients that each send their next operation only after
// the previous one completed, for at least d and then to the end of the
// current round. do runs operation i, returns its latency as timed around
// the call into the program, and an error if the program failed it. Each
// client keeps its own samples; they are merged at the end.
func closedLoop(clients, round int, d time.Duration, done func() bool, do func(i int) (time.Duration, error)) loopResult {
	start := time.Now()
	disp := &dispenser{stop: -1, round: round, deadline: start.Add(d), done: done}
	per := make([]loopResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for {
				i, ok := disp.take()
				if !ok {
					return
				}
				r.attempted++
				lat, err := do(i)
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.latencies = append(r.latencies, ms(lat))
				r.ops = append(r.ops, i)
				r.ends = append(r.ends, time.Since(start))
			}
		}(&per[c])
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	for _, r := range per {
		out.latencies = append(out.latencies, r.latencies...)
		out.ops = append(out.ops, r.ops...)
		out.ends = append(out.ends, r.ends...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// clientCount is the number of closed-loop clients: two, or one on a
// single-CPU machine, so clients never outnumber processors.
func clientCount() int { return min(2, runtime.NumCPU()) }

// liveHeapMB forces a collection and returns the live Go heap in MB. The
// second collection empties what the first moved to sync.Pool victim
// caches (encoding buffers of large responses among them), which are
// garbage but survive one cycle.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// service is ntga-serve as its users run it: a server.Server behind its
// HTTP handler on a loopback listener, reached through server.Client.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *server.Client
}

// startService parses the N-Triples text and brings the service up. The
// returned duration is the set-up time: parse, server.New and the listener.
func startService(text []byte) (*service, time.Duration, error) {
	start := time.Now()
	g, err := rdf.ReadNTriples(bytes.NewReader(text))
	if err != nil {
		return nil, 0, fmt.Errorf("parsing data: %w", err)
	}
	srv, err := server.New(server.Config{}, g)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	setup := time.Since(start)

	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	client := server.NewClient(ln.Addr().String())
	client.HTTPClient = &http.Client{Transport: tr}
	return &service{srv: srv, hs: hs, served: served, tr: tr, client: client}, setup, nil
}

// close stops the HTTP server and waits for it, then the query service.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.tr.CloseIdleConnections()
	s.srv.Close()
	return err
}

// response is the part of an answer the checks look at; batch runs and
// served queries both produce one.
type response struct {
	cache     string
	cycles    int
	totalRows int
	rows      []string
}

func fromServer(r *server.Response) response {
	return response{cache: r.Cache, cycles: r.Cycles, totalRows: r.TotalRows, rows: r.Rows}
}

// dfsWrites sums the bytes a served query's MR jobs wrote to the DFS; the
// request must set Metrics.
func dfsWrites(r *server.Response) int64 {
	var t int64
	for _, j := range r.Jobs {
		t += j.ReduceOutputBytes
	}
	return t
}
