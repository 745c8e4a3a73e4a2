package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	shc "sparsehypercube"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/planserver"
	"sparsehypercube/internal/schedio"
)

// serveKind is the class of a serve-mixed op.
type serveKind int

const (
	opVerify  serveKind = iota // cached verify; a 404 re-uploads, then verifies
	opOneShot                  // POST /v1/verify with the plan file
	opSession                  // open, one JSON round batch, close
	opUpload                   // the server's upload path; traced compositions only
)

func (k serveKind) String() string { return [...]string{"verify", "oneshot", "session", "upload"}[k] }

type serveOp struct {
	kind serveKind
	plan int // index into the pool
}

// opSequence returns client's seeded op stream over a pool of pool
// plans: 70% cached verify, 15% one-shot, 15% sessions, each op on a
// plan drawn uniformly. No recorded traffic exists to take the mix
// from, so it is an assumption: it weights op_ms_p50, op_ms_p99,
// ops_per_s and calls_per_s, and uniform popularity holds the cache
// hit ratio near serveMaxPlans/servePool. The per-class
// planserver.*_p50 metrics do not depend on it.
func opSequence(seed uint64, client, pool int) func() serveOp {
	r := newRand(seed, fmt.Sprintf("serve-mixed/client-%d", client))
	return func() serveOp {
		op := serveOp{plan: r.IntN(pool)}
		switch x := r.IntN(100); {
		case x < 70:
			op.kind = opVerify
		case x < 85:
			op.kind = opOneShot
		default:
			op.kind = opSession
		}
		return op
	}
}

// servePlan is one pool plan and everything needed to check answers
// about it.
type servePlan struct {
	data   []byte // indexed plan file
	id     string // content address the server files it under
	source uint64
	ref    shc.Report
	want   []byte           // ref as the server writes it
	rounds []linecomm.Round // the plan's rounds, sent by sessions
	at     *schedio.PlanAt  // for the traced cached-verify composition
}

// serveBench is one in-process planserver on loopback with its pool
// and HTTP client.
type serveBench struct {
	cfg    config
	seed   uint64
	cube   *shc.Cube
	inner  *core.SparseHypercube
	plans  []servePlan
	calls  int64 // calls validated per op
	srv    *planserver.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func setupServeMixed(cfg config, seed uint64, dir string) (bench, error) {
	cube, inner, err := cubes(cfg.k, cfg.serveN)
	if err != nil {
		return nil, err
	}
	b := &serveBench{cfg: cfg, seed: seed, cube: cube, inner: inner, calls: int64(cube.Order() - 1)}
	r := newRand(seed, "serve-mixed/pool")
	for _, src := range distinct(r, cube.Order(), cfg.servePool) {
		p, err := newServePlan(cube, cfg.serveN, src)
		if err != nil {
			return nil, err
		}
		b.plans = append(b.plans, p)
	}
	b.srv = planserver.New(
		planserver.WithSpillDir(filepath.Join(dir, "spill")),
		planserver.WithMaxPlans(cfg.serveMaxPlans),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.srv.Close()
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
	for i := range b.plans {
		if _, err := b.upload(&b.plans[i]); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// newServePlan encodes the broadcast from src as an indexed plan file
// and computes its reference Report by serial in-process verification.
func newServePlan(cube *shc.Cube, n int, src uint64) (servePlan, error) {
	var buf bytes.Buffer
	if _, err := cube.Plan(shc.BroadcastScheme{Source: src}).WriteIndexedTo(&buf); err != nil {
		return servePlan{}, err
	}
	p := servePlan{data: buf.Bytes(), source: src}
	sum := sha256.Sum256(p.data)
	p.id = hex.EncodeToString(sum[:])
	plan, err := shc.ReadPlanAt(bytes.NewReader(p.data), int64(len(p.data)), shc.WithVerifyWorkers(1))
	if err != nil {
		return servePlan{}, err
	}
	p.ref = plan.Verify()
	if err := checkBroadcast(p.ref, n); err != nil {
		return servePlan{}, err
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(p.ref); err != nil {
		return servePlan{}, err
	}
	p.want = want.Bytes()
	_, sched, err := schedio.DecodeAll(bytes.NewReader(p.data))
	if err != nil {
		return servePlan{}, err
	}
	p.rounds = sched.Rounds
	if p.at, err = schedio.OpenPlanAt(bytes.NewReader(p.data), int64(len(p.data))); err != nil {
		return servePlan{}, err
	}
	return p, nil
}

func (b *serveBench) close() error {
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := b.srv.Drain(ctx); err == nil {
		err = derr
	}
	b.srv.Close()
	return err
}

// post sends body to path and returns the status and response body.
func (b *serveBench) post(path string, body []byte) (int, []byte, error) {
	resp, err := b.client.Post(b.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// expect fails unless a response is status 200 with exactly want.
func expect(what string, status int, body, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", what, status, bytes.TrimSpace(body))
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: body %q, want %q", what, body, want)
	}
	return nil
}

func (b *serveBench) upload(p *servePlan) (time.Duration, error) {
	t0 := time.Now()
	status, body, err := b.post("/v1/plans", p.data)
	if err != nil {
		return 0, err
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return 0, fmt.Errorf("upload: status %d: %s", status, bytes.TrimSpace(body))
	}
	return time.Since(t0), nil
}

// classStats are one client's per-class latencies.
type classStats struct {
	verify, upload, oneshot, session []time.Duration
	verifies, hits                   int
}

func (c *classStats) merge(o *classStats) {
	c.verify = append(c.verify, o.verify...)
	c.upload = append(c.upload, o.upload...)
	c.oneshot = append(c.oneshot, o.oneshot...)
	c.session = append(c.session, o.session...)
	c.verifies += o.verifies
	c.hits += o.hits
}

// do runs one op against the server and checks its answer.
func (b *serveBench) do(op serveOp, cs *classStats) error {
	p := &b.plans[op.plan]
	t0 := time.Now()
	switch op.kind {
	case opVerify:
		cs.verifies++
		// A 404 means the LRU evicted the plan: re-upload and retry.
		// With more than one client another can evict it again in
		// between, so retry a few times before calling it a failure.
		for attempt := 0; attempt < 3; attempt++ {
			t1 := time.Now()
			status, body, err := b.post("/v1/plans/"+p.id+"/verify", nil)
			if err != nil {
				return err
			}
			if status != http.StatusNotFound {
				cs.verify = append(cs.verify, time.Since(t1))
				if attempt == 0 {
					cs.hits++
				}
				return expect("cached verify", status, body, p.want)
			}
			d, err := b.upload(p)
			if err != nil {
				return err
			}
			cs.upload = append(cs.upload, d)
		}
		return fmt.Errorf("cached verify: plan %s evicted on every retry", p.id[:12])
	case opOneShot:
		status, body, err := b.post("/v1/verify", p.data)
		if err != nil {
			return err
		}
		cs.oneshot = append(cs.oneshot, time.Since(t0))
		return expect("one-shot verify", status, body, p.want)
	default:
		err := b.session(p)
		cs.session = append(cs.session, time.Since(t0))
		return err
	}
}

// session opens an incremental session, sends the plan's rounds as
// one JSON round batch and checks the Report the close returns.
func (b *serveBench) session(p *servePlan) error {
	req, err := json.Marshal(map[string]any{"k": b.cfg.k, "n": b.cfg.serveN, "scheme": "broadcast", "source": p.source})
	if err != nil {
		return err
	}
	status, body, err := b.post("/v1/sessions", req)
	if err != nil {
		return err
	}
	var open struct {
		ID string `json:"id"`
	}
	if status != http.StatusCreated || json.Unmarshal(body, &open) != nil {
		return fmt.Errorf("session open: status %d: %s", status, bytes.TrimSpace(body))
	}
	var batch bytes.Buffer
	if err := linecomm.WriteRoundBatch(&batch, p.rounds); err != nil {
		return err
	}
	status, body, err = b.post("/v1/sessions/"+open.ID+"/rounds", batch.Bytes())
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("session rounds: status %d: %s", status, bytes.TrimSpace(body))
	}
	status, body, err = b.post("/v1/sessions/"+open.ID+"/close", nil)
	if err != nil {
		return err
	}
	return expect("session close", status, body, p.want)
}

// serveRec is one op of a closed-loop phase.
type serveRec struct {
	t0, t1 time.Time
	ok     bool
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	recs   []serveRec
	sl     slicing
	failed int
	class  classStats
}

// loop runs serveClients closed-loop clients, each on its own seeded op
// sequence, until it has d of clean time (steal.go) and at least minOps
// ops have completed, or stretched(d) has passed.
func (b *serveBench) loop(d time.Duration, minOps int) loopResult {
	clock := startStealClock()
	start := time.Now()
	var total atomic.Int64
	parts := make([]loopResult, serveClients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &parts[c]
			next := opSequence(b.seed, c, len(b.plans))
			for {
				if clock.enough(start, d) && (total.Load() >= int64(minOps) || time.Since(start) >= stretched(d)) {
					return
				}
				op := next()
				t0 := time.Now()
				err := b.do(op, &res.class)
				res.recs = append(res.recs, serveRec{t0, time.Now(), err == nil})
				total.Add(1)
				if err != nil {
					res.failed++
					fmt.Fprintf(os.Stderr, "client %d %s op: %v\n", c, op.kind, err)
				}
			}
		}()
	}
	wg.Wait()
	out := loopResult{sl: clock.finish()}
	for i := range parts {
		out.recs = append(out.recs, parts[i].recs...)
		out.failed += parts[i].failed
		out.class.merge(&parts[i].class)
	}
	return out
}

// measure reports latency over the ops that touch only uncontended
// slices, and throughput as the ops completed in uncontended slices per
// second of their time.
func (b *serveBench) measure(d time.Duration, m metricSet) (attempted, failed int) {
	res := b.loop(d, b.cfg.serveMinOps)
	shares := make([]float64, len(res.recs))
	for i, r := range res.recs {
		shares[i] = res.sl.spanShare(r.t0, r.t1)
	}
	limit := stealLimit(shares, b.cfg.serveMinOps)
	var durs []time.Duration
	var done, calls int64
	for i, r := range res.recs {
		if shares[i] <= limit {
			durs = append(durs, r.t1.Sub(r.t0))
		}
		if res.sl.shareAt(r.t1) <= limit {
			done++
			if r.ok {
				calls += b.calls
			}
		}
	}
	kept, total := res.sl.times(limit)
	reportSteal(kept, total, limit)
	m.set("calls_per_s", float64(calls)/kept.Seconds())
	m.set("op_ms_p50", median(msAll(durs)))
	tail, p := tailPercentile(msAll(durs))
	m.set("op_ms_p99", tail)
	m.set("ops_per_s", float64(done)/kept.Seconds())
	fmt.Printf("ops %d, %d reported (%d cached verifies, %d hits), op_ms_p99 reports p%d\n", len(res.recs), len(durs), res.class.verifies, res.class.hits, p)
	return len(res.recs), res.failed
}

// serverMetrics are the /metrics counters the benchmark reads.
type serverMetrics struct {
	evicted, spilled, verifyCount float64
	verifySum                     float64 // seconds
}

func (b *serveBench) scrape() (serverMetrics, error) {
	resp, err := b.client.Get(b.base + "/metrics")
	if err != nil {
		return serverMetrics{}, err
	}
	defer resp.Body.Close()
	var sm serverMetrics
	fields := map[string]*float64{
		"planserver_plans_evicted_total":  &sm.evicted,
		"planserver_plans_spilled_total":  &sm.spilled,
		"planserver_verify_seconds_sum":   &sm.verifySum,
		"planserver_verify_seconds_count": &sm.verifyCount,
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if dst, known := fields[name]; ok && known {
			if *dst, err = strconv.ParseFloat(val, 64); err != nil {
				return serverMetrics{}, fmt.Errorf("/metrics %s: %w", name, err)
			}
		}
	}
	return sm, sc.Err()
}

// traced spends half of d on the HTTP loop, for the planserver and go
// layers, and half on traced compositions of what the server does per
// op class, for the codec, validator and facade layers.
func (b *serveBench) traced(d time.Duration, t *tracer, m metricSet) (attempted, failed int) {
	before, err := b.scrape()
	if err != nil {
		fmt.Fprintf(os.Stderr, "scraping /metrics: %v\n", err)
		return 1, 1
	}
	g0 := readGo()
	res := b.loop(d/2, 0)
	g1 := readGo()
	after, err := b.scrape()
	if err != nil {
		fmt.Fprintf(os.Stderr, "scraping /metrics: %v\n", err)
		return len(res.recs) + 1, res.failed + 1
	}
	attempted, failed = len(res.recs), res.failed
	var gc goCost
	gc.add(g0, g1, len(res.recs))
	gc.metrics(m)

	cs := res.class
	m.set("planserver.verify_ms_p50", median(msAll(cs.verify)))
	m.set("planserver.upload_ms_p50", median(msAll(cs.upload)))
	m.set("planserver.oneshot_ms_p50", median(msAll(cs.oneshot)))
	m.set("planserver.session_ms_p50", median(msAll(cs.session)))
	// The server's histogram holds cached and one-shot verifies alike.
	serverMean := 0.0
	if n := after.verifyCount - before.verifyCount; n > 0 {
		serverMean = 1e3 * (after.verifySum - before.verifySum) / n
	}
	m.set("planserver.server_verify_ms_mean", serverMean)
	m.set("planserver.cache_hit_ratio", float64(cs.hits)/float64(max(cs.verifies, 1)))
	m.set("planserver.evictions", after.evicted-before.evicted)
	m.set("planserver.spills", after.spilled-before.spilled)

	a, f := b.composeLoop(d/2, t, m)
	// A cached verify over HTTP against the same Verify in process, at
	// the same default workers: both medians over cached verifies only.
	if len(cs.verify) > 0 {
		m.set("planserver.http_overhead_ms", m["planserver.verify_ms_p50"]-m["sparsehypercube.verify_parallel_ms"])
	}
	return attempted + a, failed + f
}

// composeLoop runs client 0's op sequence in-process as direct layer
// calls, each untraced then traced, plus the facade's cached-verify
// path at both worker settings and a traced encode. The facade's
// overhead is its serial Verify against the serial composition of a
// cached verify.
func (b *serveBench) composeLoop(d time.Duration, t *tracer, m metricSet) (attempted, failed int) {
	check := func(what string, err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		}
	}
	var plain, traced []time.Duration
	next := opSequence(b.seed, 0, len(b.plans))
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		op := next()
		p := &b.plans[op.plan]
		kinds := []serveKind{op.kind}
		if op.kind == opVerify {
			check("modes", b.verifyModes(t, p))
			check("encode", encodeTraced(t, b.inner, b.cfg.k, b.cube.Dims(), p.source, int64(len(p.data))))
			kinds = append(kinds, opUpload) // a miss's re-upload, for schedio's Check
		}
		for _, kind := range kinds {
			t0 := time.Now()
			check("compose "+kind.String(), b.compose(nil, -1, -1, kind, p))
			plain = append(plain, time.Since(t0))
			id, root := t.root("op")
			check("traced compose "+kind.String(), b.compose(t, id, root, kind, p))
			t.end(root)
			traced = append(traced, t.dur(root))
		}
	}
	ops := t.ops()
	layerMetrics(m, ops)
	failed += callCountFailures(ops, b.calls)
	cached := withSpan(ops, "op", "schedio.PlanAt.NewDecoder")
	m.set("sparsehypercube.overhead_ms", m["sparsehypercube.verify_serial_ms"]-medianOf(cached, func(o opTrace) float64 { return ms(o.layerTime()) }))
	m.set("trace.overhead_pct", tracingOverheadPct(plain, traced))
	return attempted, failed
}

// compose runs the server's work for one op class as direct layer
// calls. The upload path opens the uploaded bytes and scans them with
// schedio's Check.
func (b *serveBench) compose(t *tracer, op, parent int, kind serveKind, p *servePlan) error {
	var (
		d   *schedio.Decoder
		err error
	)
	size := int64(len(p.data))
	switch kind {
	case opUpload:
		var at *schedio.PlanAt
		t.call("schedio.OpenPlanAt", parent, op, func() { at, err = schedio.OpenPlanAt(bytes.NewReader(p.data), size) })
		if err != nil {
			return err
		}
		var rounds int
		t.call("schedio.PlanAt.Check", parent, op, func() { rounds, err = at.Check() })
		if err == nil && rounds != b.cfg.serveN {
			err = fmt.Errorf("check found %d rounds, want %d", rounds, b.cfg.serveN)
		}
		return err
	case opVerify:
		t.call("schedio.PlanAt.NewDecoder", parent, op, func() { d, err = p.at.NewDecoder() })
	case opOneShot:
		t.call("schedio.NewDecoder", parent, op, func() { d, err = schedio.NewDecoder(bytes.NewReader(p.data)) })
	case opSession:
		var batch bytes.Buffer
		t.call("linecomm.WriteRoundBatch", parent, op, func() { err = linecomm.WriteRoundBatch(&batch, p.rounds) })
		if err != nil {
			return err
		}
		t.add(op, "linecomm.batch_bytes", int64(batch.Len()))
		var rounds []linecomm.Round
		t.call("linecomm.ReadRoundBatch", parent, op, func() { rounds, err = linecomm.ReadRoundBatch(&batch) })
		if err != nil {
			return err
		}
		v := t.begin("linecomm.ValidateStream", parent, op)
		res := linecomm.ValidateStream(b.inner, b.cfg.k, p.source,
			pipe(t, op, v, "trace.batch", "linecomm.ValidateStream", slices.Values(rounds)))
		t.end(v)
		return checkSame(reportOf(res), p.ref)
	}
	if err != nil {
		return err
	}
	t.add(op, "schedio.bytes", size)
	v := t.begin("linecomm.ValidateStream", parent, op)
	res := linecomm.ValidateStream(b.inner, b.cfg.k, p.source,
		pipe(t, op, v, "schedio.Decoder.Rounds", "linecomm.ValidateStream", d.Rounds()))
	t.end(v)
	if err := d.Err(); err != nil {
		return err
	}
	return checkSame(reportOf(res), p.ref)
}

// verifyModes times the facade's Verify of one in-memory indexed plan
// serially and at the default worker count.
func (b *serveBench) verifyModes(t *tracer, p *servePlan) error {
	op, root := t.root("modes")
	defer t.end(root)
	for _, mode := range verifyModes {
		plan, err := shc.ReadPlanAt(bytes.NewReader(p.data), int64(len(p.data)), mode.opts...)
		if err != nil {
			return err
		}
		var rep shc.Report
		t.call(mode.span, root, op, func() { rep = plan.Verify() })
		if err := checkSame(rep, p.ref); err != nil {
			return fmt.Errorf("%s: %w", mode.span, err)
		}
	}
	return nil
}
