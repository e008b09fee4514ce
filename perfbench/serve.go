package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"snd"
	"snd/internal/serve"
	"snd/internal/wal"
)

// serveConfig sizes the serve workload.
type serveConfig struct {
	n         int // users of the tenant graph
	deltaK    int // opinion changes per step
	live      int // states client A steps, round-robin
	static    int // states client B queries, never stepped
	staticK   int // changes from the base in each static state
	warmSteps int // warm-up steps, on a state of its own
	stepRate  int // steps generated per second of run length (an upper bound on what runs)
}

var serveSize = serveConfig{n: 2000, deltaK: 20, live: 8, static: 48, staticK: 20, warmSteps: 4, stepRate: 200}

// tenantName names the workload's only tenant.
const tenantName = "t"

// tmpRoot holds the write-ahead logs, inside the checkout.
const tmpRoot = ".bench_build/tmp"

// serveInputs is the generated input: the tenant spec, every state's
// opinions, the step stream and the query stream, each request body
// encoded once up front.
type serveInputs struct {
	create   []byte // CreateTenantRequest body
	graph    snd.ScaleFreeConfig
	liveBase []snd.State      // the live states' opinions at PUT time
	statics  []snd.State      // the static states' opinions
	warm     snd.State        // the warm-up state
	warmD    []snd.StateDelta // its warm-up steps
	steps    []stepInput      // client A's sequence
	queries  [][2]int         // client B's sequence: distinct static-state pairs
}

// stepInput is one step of client A: a live state and its next delta.
type stepInput struct {
	live  int
	tick  int // this live state's tick, so version after = tick + 2
	delta snd.StateDelta
	body  []byte
}

func liveName(i int) string   { return "l" + strconv.Itoa(i) }
func staticName(i int) string { return "s" + strconv.Itoa(i) }

func prepareServe(cfg serveConfig, seed int64, seconds int) setupFunc {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{graph: graphConfig(cfg.n)}
	in.create, _ = json.Marshal(serve.CreateTenantRequest{ // plain structs always encode
		Name:    tenantName,
		Workers: workers,
		Graph: serve.GraphSpec{ScaleFree: &serve.ScaleFreeSpec{
			N: in.graph.N, OutDeg: in.graph.OutDeg, Exponent: in.graph.Exponent,
			Reciprocity: in.graph.Reciprocity, Seed: in.graph.Seed,
		}},
	})
	base := randomState(cfg.n, rng)
	derive := func() snd.State { return applied(base, randomDelta(base, cfg.staticK, rng)) }
	for i := 0; i < cfg.live; i++ {
		in.liveBase = append(in.liveBase, derive())
	}
	for i := 0; i < cfg.static; i++ {
		in.statics = append(in.statics, derive())
	}
	in.warm = derive()
	in.warmD, _ = trajectory(in.warm, cfg.warmSteps, cfg.deltaK, rng)

	// Client A: round-robin over the live states, each following its
	// own trajectory.
	perLive := (cfg.stepRate*seconds + cfg.live - 1) / cfg.live
	trajs := make([][]snd.StateDelta, cfg.live)
	for i := range trajs {
		trajs[i], _ = trajectory(in.liveBase[i], perLive, cfg.deltaK, rng)
	}
	for tick := 0; tick < perLive; tick++ {
		for i := range trajs {
			d := trajs[i][tick]
			in.steps = append(in.steps, stepInput{live: i, tick: tick, delta: d, body: stepBody(d)})
		}
	}
	// Client B: every distinct static pair once, in a seeded order,
	// the whole cycle repeated as often as the run could need. A pair
	// asked again can be served whole from the engine's retained
	// bases, so the static states are enough for a run never to get
	// there (48 states: 1128 pairs; a 20 s run asks about 700).
	var pairs [][2]int
	for a := 0; a < cfg.static; a++ {
		for b := a + 1; b < cfg.static; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	for len(in.queries) < cfg.stepRate*seconds {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		in.queries = append(in.queries, pairs...)
	}
	return func(ph *phases, traced bool) (bench, error) { return setupServe(in, ph, traced) }
}

// stepBody encodes one single-delta step request.
func stepBody(d snd.StateDelta) []byte {
	wire := make(serve.Delta, len(d))
	for j, ch := range d {
		wire[j] = serve.Change{User: ch.User, Opinion: int8(ch.Opinion)}
	}
	b, _ := json.Marshal(serve.StepRequest{Deltas: []serve.Delta{wire}}) // plain structs always encode
	return b
}

func putBody(st snd.State) []byte {
	ops := make([]int8, len(st))
	for u, o := range st {
		ops[u] = int8(o)
	}
	b, _ := json.Marshal(serve.PutStateRequest{Opinions: ops}) // plain structs always encode
	return b
}

// serveBench is one running server with a WAL-attached registry, plus
// the two clients that drive it and the answers they collected.
type serveBench struct {
	in      *serveInputs
	dir     string
	reg     *serve.Registry
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve returns
	a, b    *client
	mw      *tracedHandler // nil when untraced
	walFS   *timingFS      // nil when untraced
	stepSND []float64      // answer to in.steps[i]
	queries []serve.QueryResponse
	bad     []error   // drive-time response mismatches
	walBase walCounts // WAL counters at the start of the timed phase
}

// setupServe starts the server and loads the tenant. The tenant create
// builds the graph server-side, so that time lands in ph.engine with
// the server start and WAL attach; ph.graph stays zero.
func setupServe(in *serveInputs, ph *phases, traced bool) (bench, error) {
	t := time.Now()
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	s := &serveBench{in: in, dir: dir, reg: serve.NewRegistry(serve.Config{}), served: make(chan struct{})}
	opts := wal.Options{Policy: wal.SyncAlways}
	if traced {
		s.walFS = &timingFS{}
		opts.FS = s.walFS
	}
	if _, err := s.reg.AttachWAL(dir, opts, 0); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var h http.Handler = serve.NewServer(s.reg, 0)
	if traced {
		s.mw = &tracedHandler{next: h, reg: s.reg, walFS: s.walFS,
			byOp: make(map[int64]time.Duration), dur: make(map[string]time.Duration),
			busy: make(map[string]time.Duration), count: make(map[string]int)}
		h = s.mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.reg.CloseAll()
		os.RemoveAll(dir)
		return nil, err
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	base := "http://" + ln.Addr().String()
	s.a, s.b = newClient(base, s.mw), newClient(base, s.mw)

	ctx := context.Background()
	tenant := "/v1/tenants/" + tenantName
	if err := s.a.sendJSON(ctx, "POST", "/v1/tenants", in.create, nil); err != nil {
		s.close()
		return nil, fmt.Errorf("create tenant: %w", err)
	}
	ph.engine = time.Since(t)

	t = time.Now()
	put := func(name string, st snd.State) error {
		return s.a.sendJSON(ctx, "PUT", tenant+"/states/"+name, putBody(st), nil)
	}
	for i, st := range in.liveBase {
		err = errors.Join(err, put(liveName(i), st))
	}
	for i, st := range in.statics {
		err = errors.Join(err, put(staticName(i), st))
	}
	if err = errors.Join(err, put("w", in.warm)); err != nil {
		s.close()
		return nil, fmt.Errorf("put states: %w", err)
	}
	ph.register = time.Since(t)

	t = time.Now()
	for _, d := range in.warmD {
		err = errors.Join(err, s.a.sendJSON(ctx, "POST", tenant+"/states/w:step", stepBody(d), &serve.StepResponse{}))
	}
	for i := 0; i < 2; i++ {
		q, _ := json.Marshal(serve.QueryRequest{Op: "distance", States: []string{"w", liveName(i)}}) // plain structs always encode
		err = errors.Join(err, s.b.sendJSON(ctx, "POST", tenant+"/query", q, &serve.QueryResponse{}))
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	ph.warmup = time.Since(t)
	return s, nil
}

func (s *serveBench) drive(ctx context.Context, rec *recorder, deadline time.Time, caps []int) ([]int, error) {
	if s.mw != nil {
		s.mw.rec.Store(rec)
		s.walBase = s.walFS.counts()
		s.a.reset()
		s.b.reset()
	}
	counts := make([]int, 2)
	errs := make([]error, 2)
	more := func(stream, done int) bool {
		return (deadline.IsZero() || time.Now().Before(deadline)) && (caps == nil || done < caps[stream])
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		counts[0], errs[0] = s.driveSteps(ctx, rec, func(done int) bool { return more(0, done) })
	}()
	go func() {
		defer wg.Done()
		counts[1], errs[1] = s.driveQueries(ctx, rec, func(done int) bool { return more(1, done) })
	}()
	wg.Wait()
	return counts, errors.Join(errs...)
}

// driveSteps is client A: the step stream, in order.
func (s *serveBench) driveSteps(ctx context.Context, rec *recorder, more func(int) bool) (int, error) {
	tenant := "/v1/tenants/" + tenantName
	done := 0
	for i := 0; i < len(s.in.steps) && more(done); i++ {
		st := s.in.steps[i]
		var resp serve.StepResponse
		err := s.a.op(ctx, rec, "step", int64(i), "POST", tenant+"/states/"+liveName(st.live)+":step", st.body, &resp)
		done++
		if err != nil {
			return done, fmt.Errorf("step %d: %w", i, err)
		}
		if len(resp.Results) != 1 || resp.Results[0].SND == nil || resp.Results[0].Version != uint64(st.tick+2) {
			return done, fmt.Errorf("step %d: malformed response %+v", i, resp)
		}
		s.stepSND = append(s.stepSND, *resp.Results[0].SND)
	}
	return done, nil
}

// driveQueries is client B: the query stream, in order. Op ids are
// offset so they never collide with client A's.
func (s *serveBench) driveQueries(ctx context.Context, rec *recorder, more func(int) bool) (int, error) {
	tenant := "/v1/tenants/" + tenantName
	done := 0
	for i := 0; i < len(s.in.queries) && more(done); i++ {
		q := s.in.queries[i]
		body, _ := json.Marshal(serve.QueryRequest{Op: "distance", States: []string{staticName(q[0]), staticName(q[1])}}) // plain structs always encode
		var resp serve.QueryResponse
		err := s.b.op(ctx, rec, "distance", int64(1<<40+i), "POST", tenant+"/query", body, &resp)
		done++
		if err != nil {
			return done, fmt.Errorf("query %d: %w", i, err)
		}
		if len(resp.Results) != 1 {
			return done, fmt.Errorf("query %d: malformed response %+v", i, resp)
		}
		s.queries = append(s.queries, resp)
	}
	return done, nil
}

// check replays every answered step and query on a library shadow of
// the tenant: step SNDs along each live state's trajectory, and
// queries at the versions the server pinned (static states never move,
// so every pin must be version 1). The live states replay in two
// independent halves while the queried pairs run as one Pairs batch,
// all three at once.
func (s *serveBench) check(ctx context.Context) []error {
	g := snd.ScaleFreeGraph(s.in.graph)
	shadow := snd.NewNetwork(g, snd.DefaultOptions(), snd.EngineConfig{Workers: workers})
	defer shadow.Close()

	var bad []error
	var pairs []snd.StatePair
	for i, resp := range s.queries {
		q := s.in.queries[i]
		if v := resp.Versions; v[staticName(q[0])] != 1 || v[staticName(q[1])] != 1 {
			bad = append(bad, fmt.Errorf("query %d: pinned versions %v, want 1", i, v))
		}
		pairs = append(pairs, snd.StatePair{A: s.in.statics[q[0]], B: s.in.statics[q[1]]})
	}
	halves := make([][]error, 2)
	var want []snd.Result
	var pairsErr error
	var wg sync.WaitGroup
	for h := range halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			halves[h] = s.replaySteps(ctx, shadow, h)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		want, pairsErr = shadow.Pairs(ctx, pairs)
	}()
	wg.Wait()
	bad = append(append(bad, halves[0]...), halves[1]...)
	if pairsErr != nil {
		return append(bad, fmt.Errorf("shadow queries: %w", pairsErr))
	}
	for i, resp := range s.queries {
		if got := resp.Results[0].SND; math.Float64bits(want[i].SND) != math.Float64bits(got) {
			bad = append(bad, fmt.Errorf("query %d: served %v, shadow %v", i, got, want[i].SND))
		}
	}
	return bad
}

// replaySteps replays the answered steps of the live states with the
// given parity, in order, and compares each SND bit for bit.
func (s *serveBench) replaySteps(ctx context.Context, shadow *snd.Network, parity int) []error {
	var bad []error
	cur := append([]snd.State(nil), s.in.liveBase...)
	for i, got := range s.stepSND {
		st := s.in.steps[i]
		if st.live%2 != parity {
			continue
		}
		next, res, err := shadow.StepFrom(ctx, cur[st.live], st.delta)
		if err != nil {
			return append(bad, fmt.Errorf("shadow step %d: %w", i, err))
		}
		cur[st.live] = next
		if math.Float64bits(res.SND) != math.Float64bits(got) {
			bad = append(bad, fmt.Errorf("step %d: served %v, shadow %v", i, got, res.SND))
		}
	}
	return bad
}

func (s *serveBench) layers() map[string]float64 {
	out := make(map[string]float64)
	if t, err := s.reg.Get(tenantName); err == nil {
		out = groundGauges(t.Network().Engine())
	}
	if s.mw == nil {
		return out
	}
	for k, v := range s.mw.metrics(s.a, s.b) {
		out[k] = v
	}
	w := s.walFS.counts().sub(s.walBase)
	steps := float64(len(s.stepSND))
	out["wal.appends"] = float64(w.appends)
	out["wal.fsyncs"] = float64(w.fsyncs)
	if steps > 0 {
		out["wal.bytes_per_step"] = float64(w.appendBytes) / steps
	}
	if w.writes > 0 {
		out["wal.write_ms"] = ms(w.writeTime) / float64(w.writes)
	}
	if w.fsyncs > 0 {
		out["wal.fsync_ms"] = ms(w.fsyncTime) / float64(w.fsyncs)
	}
	return out
}

func (s *serveBench) close() {
	_ = s.hs.Close()
	<-s.served
	s.a.hc.CloseIdleConnections()
	s.b.hc.CloseIdleConnections()
	s.reg.CloseAll()
	os.RemoveAll(s.dir)
}

// client is one closed-loop HTTP client on its own keep-alive
// connection. shed counts 429/503 answers; each fails its op even when
// a retry succeeds.
type client struct {
	base string
	hc   *http.Client
	mw   *tracedHandler // the traced phase's middleware, nil untraced

	mu                  sync.Mutex
	shed                int
	reqBytes, respBytes int64
	requests            int64
	overhead            map[string]time.Duration // op class -> client latency minus handler time
	overheadN           map[string]int
}

func newClient(base string, mw *tracedHandler) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{
		base:      base,
		mw:        mw,
		hc:        &http.Client{Transport: tr},
		overhead:  make(map[string]time.Duration),
		overheadN: make(map[string]int),
	}
}

// shedRetries bounds the re-sends of a shed request.
const shedRetries = 5

// send issues one request, re-sending it after a 429 or 503, and
// decodes a 2xx body into out. It returns the number of shed answers;
// any other non-2xx status is an error.
func (c *client) send(ctx context.Context, method, path string, body []byte, out any, op, spanID int64) (shed int, err error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return shed, err
		}
		if spanID != 0 {
			req.Header.Set(opHeader, strconv.FormatInt(op, 10))
			req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return shed, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return shed, err
		}
		c.mu.Lock()
		c.requests++
		c.reqBytes += int64(len(body))
		c.respBytes += int64(len(data))
		c.mu.Unlock()
		switch code := resp.StatusCode; {
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			shed++
			if attempt >= shedRetries {
				return shed, fmt.Errorf("%s %s: %d after %d retries", method, path, code, attempt)
			}
			time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
		case code >= 300:
			return shed, fmt.Errorf("%s %s: %d %s", method, path, code, bytes.TrimSpace(data))
		default:
			if out == nil {
				return shed, nil
			}
			return shed, json.Unmarshal(data, out)
		}
	}
}

// sendJSON is send for set-up and warm-up requests: untimed, untraced.
func (c *client) sendJSON(ctx context.Context, method, path string, body []byte, out any) error {
	_, err := c.send(ctx, method, path, body, out, 0, 0)
	return err
}

// op sends one timed request of class. A shed answer fails the op even
// when a retry then succeeds. In a traced phase it records the client
// span and the HTTP overhead: client latency minus the handler time the
// middleware observed.
func (c *client) op(ctx context.Context, rec *recorder, class string, op int64, method, path string, body []byte, out any) error {
	var spanID int64
	if rec.traced {
		spanID = rec.newSpan()
	}
	start := time.Now()
	shed, err := c.send(ctx, method, path, body, out, op, spanID)
	end := time.Now()
	if shed > 0 {
		c.mu.Lock()
		c.shed += shed
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("%s %s: shed %d times before it was served", method, path, shed)
			rec.done(class, end.Sub(start), err)
			return nil // the op was served; the stream goes on
		}
	}
	rec.done(class, end.Sub(start), err)
	if err != nil || !rec.traced {
		return err
	}
	rec.record(spanID, 0, op, "http."+class, start, end)
	if handler, ok := c.mw.take(op); ok {
		c.mu.Lock()
		c.overhead[class] += end.Sub(start) - handler
		c.overheadN[class]++
		c.mu.Unlock()
	}
	return nil
}

// reset zeroes the traffic counters at the start of a timed phase.
func (c *client) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shed, c.requests, c.reqBytes, c.respBytes = 0, 0, 0, 0
	clear(c.overhead)
	clear(c.overheadN)
}
