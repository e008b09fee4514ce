package main

import (
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snd/internal/serve"
	"snd/internal/wal"
)

// Timed requests carry their op id and client span id to the handler
// middleware in these headers; set-up traffic carries neither.
const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// tracedHandler wraps Server.ServeHTTP in the traced serve phase: it
// times every timed request's handler, records its span as a child of
// the client span, and charges the tenant engine's busy time (the
// SSSP, flow and bound phases of its Stats) across the handler to the
// request. Two clients share the engine, so a request's busy time also
// holds whatever the other client's request ran meanwhile.
type tracedHandler struct {
	next  http.Handler
	reg   *serve.Registry
	walFS *timingFS
	rec   atomic.Pointer[recorder] // nil until the timed phase starts

	mu    sync.Mutex
	byOp  map[int64]time.Duration  // op -> handler time, until the client takes it
	dur   map[string]time.Duration // op class -> summed handler time
	busy  map[string]time.Duration // op class -> summed engine busy time
	count map[string]int
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	op, errOp := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
	parent, errSpan := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	t, errTenant := h.reg.Get(tenantName)
	if rec == nil || errOp != nil || errSpan != nil || errTenant != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	class := "step"
	if strings.HasSuffix(r.URL.Path, "/query") {
		class = "distance"
	}
	eng := t.Network().Engine()
	id := rec.newSpan()
	if class == "step" {
		// Only client A steps, one request at a time, so WAL work
		// belongs to the step in flight.
		h.walFS.charge.Store(&walCharge{rec: rec, parent: id, op: op})
		defer h.walFS.charge.Store(nil)
	}
	before := eng.Stats()
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	d := eng.Stats().Sub(before)
	rec.record(id, parent, op, "serve."+class, start, end)

	h.mu.Lock()
	defer h.mu.Unlock()
	h.byOp[op] = end.Sub(start)
	h.dur[class] += end.Sub(start)
	h.busy[class] += d.SSSPTime + d.FlowTime + d.BoundTime
	h.count[class]++
}

// take removes and returns the handler time of op.
func (h *tracedHandler) take(op int64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byOp[op]
	delete(h.byOp, op)
	return d, ok
}

// metrics reports the serve and http layers: per op class handler time
// and engine busy time (SSSP + flow + bounds) per request, the shed
// count, and per request HTTP overhead and body sizes.
func (h *tracedHandler) metrics(clients ...*client) map[string]float64 {
	out := make(map[string]float64)
	h.mu.Lock()
	for class, n := range h.count {
		out["serve."+class+".handler_ms"] = ms(h.dur[class]) / float64(n)
		out["serve."+class+".core_busy_ms"] = ms(h.busy[class]) / float64(n)
	}
	h.mu.Unlock()
	var shed, requests, reqBytes, respBytes int64
	overhead := make(map[string]time.Duration)
	overheadN := make(map[string]int)
	for _, c := range clients {
		c.mu.Lock()
		shed += int64(c.shed)
		requests += c.requests
		reqBytes += c.reqBytes
		respBytes += c.respBytes
		for class, d := range c.overhead {
			overhead[class] += d
			overheadN[class] += c.overheadN[class]
		}
		c.mu.Unlock()
	}
	out["serve.shed"] = float64(shed)
	for class, d := range overhead {
		out["http."+class+".overhead_ms"] = ms(d) / float64(overheadN[class])
	}
	if requests > 0 {
		out["http.req_bytes"] = float64(reqBytes) / float64(requests)
		out["http.resp_bytes"] = float64(respBytes) / float64(requests)
	}
	return out
}

// walCounts tallies the WAL's filesystem traffic. Appends are the
// writes to log segments; writes also include checkpoint snapshots.
type walCounts struct {
	writes, appends, appendBytes, fsyncs int64
	writeTime, fsyncTime                 time.Duration
}

func (c walCounts) sub(prev walCounts) walCounts {
	return walCounts{
		writes: c.writes - prev.writes, appends: c.appends - prev.appends,
		appendBytes: c.appendBytes - prev.appendBytes, fsyncs: c.fsyncs - prev.fsyncs,
		writeTime: c.writeTime - prev.writeTime, fsyncTime: c.fsyncTime - prev.fsyncTime,
	}
}

// walCharge names the span WAL work is recorded under.
type walCharge struct {
	rec        *recorder
	parent, op int64
}

// timingFS is the real filesystem with every file write and fsync
// timed, handed to Registry.AttachWAL in the traced serve phase.
type timingFS struct {
	wal.OSFS
	charge atomic.Pointer[walCharge]

	mu sync.Mutex
	c  walCounts
}

func (fs *timingFS) Create(name string) (wal.File, error) {
	f, err := fs.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs, segment: isSegment(name)}, nil
}

func (fs *timingFS) OpenAppend(name string) (wal.File, error) {
	f, err := fs.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs, segment: isSegment(name)}, nil
}

func (fs *timingFS) counts() walCounts {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.c
}

// observe charges one timed call to the counters and, while a step is
// in flight, records it as a span under that step's handler span.
func (fs *timingFS) observe(name string, start, end time.Time, tally func(*walCounts, time.Duration)) {
	fs.mu.Lock()
	tally(&fs.c, end.Sub(start))
	fs.mu.Unlock()
	if ch := fs.charge.Load(); ch != nil {
		ch.rec.record(ch.rec.newSpan(), ch.parent, ch.op, name, start, end)
	}
}

// isSegment reports whether name is a log segment (wal-<lsn>.log).
func isSegment(name string) bool { return strings.HasPrefix(filepath.Base(name), "wal-") }

type timingFile struct {
	wal.File
	fs      *timingFS
	segment bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.observe("wal.write", start, time.Now(), func(c *walCounts, d time.Duration) {
		c.writes++
		c.writeTime += d
		if f.segment {
			c.appends++
			c.appendBytes += int64(n)
		}
	})
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.observe("wal.fsync", start, time.Now(), func(c *walCounts, d time.Duration) {
		c.fsyncs++
		c.fsyncTime += d
	})
	return err
}
