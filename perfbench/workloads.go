package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	shc "sparsehypercube"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// config sizes the workloads. fullSize is what the benchmark runs;
// the tests run the same code at tiny sizes.
type config struct {
	k             int // call-length bound of every cube
	n             int // cube dimension of the batch workloads
	replayPool    int // indexed plans written for replay-mmap
	gossipSources int // token holders of gossip-sampled
	serveN        int // cube dimension of serve-mixed's plans
	servePool     int // plans serve-mixed's clients draw from
	serveMaxPlans int // server cache budget, below servePool
	serveMinOps   int // serve-mixed runs past the deadline until this many ops
	setupReps     int // set-ups per run; setup_s is their median
}

var fullSize = config{
	k: 2, n: 20, replayPool: 4, gossipSources: 1024,
	serveN: 14, servePool: 8, serveMaxPlans: 6, serveMinOps: 1000,
	setupReps: 5,
}

const (
	minOps       = 3 // batch workloads run at least this many ops
	serveClients = 1 // closed-loop clients of serve-mixed; two saturate the reference host's 2 vCPUs (see README)
)

// bench is one set-up workload, ready to run.
type bench interface {
	// measure runs the untraced closed loop for d and reports the
	// end-to-end metrics other than setup_s and peak_rss_mb.
	measure(d time.Duration, m metricSet) (attempted, failed int)
	// traced runs the traced loop for d and reports per-layer metrics.
	traced(d time.Duration, t *tracer, m metricSet) (attempted, failed int)
	close() error
}

// workloads maps each workload name to its set-up. dir is an empty
// directory the set-up may fill.
var workloads = map[string]func(cfg config, seed uint64, dir string) (bench, error){
	"verify-gen":     setupVerifyGen,
	"replay-mmap":    setupReplayMmap,
	"gossip-sampled": setupGossipSampled,
	"serve-mixed":    setupServeMixed,
}

// newRand returns the random stream named purpose for seed: every
// input of a run derives from the seed, one independent stream per
// use, so adding a use never shifts another's values.
func newRand(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// distinct draws count distinct vertices below order.
func distinct(r *rand.Rand, order uint64, count int) []uint64 {
	seen := make(map[uint64]bool, count)
	out := make([]uint64, 0, count)
	for len(out) < count {
		v := r.Uint64N(order)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// opInputs is the length of a batch workload's seeded input sequence;
// op i uses entry i mod opInputs.
const opInputs = 1024

// batch is a workload with one closed-loop caller. Each op goes
// through the public facade; compose runs the same work as direct
// calls into the layers, so the traced run can time each layer.
type batch struct {
	calls   int64                                     // calls validated per op
	op      func(i int, opts ...shc.PlanOption) error // facade op i, answer checked
	ranged  bool                                      // op's Verify splits into round ranges at the default workers
	compose func(t *tracer, op, parent, i int) error  // layer calls for op i, answer checked
	extra   func(t *tracer, i int) error              // extra traced roots, or nil
}

// close has nothing to release: plan files live in the run's work
// directory, which the caller removes.
func (b *batch) close() error { return nil }

// measure runs ops back to back as a plain closed loop: each op pays
// for whatever garbage collection the loop's allocations bring on, as
// a caller's op would. It runs until it has d of uncontended time and
// reports from the ops whose iteration was uncontended (steal.go).
func (b *batch) measure(d time.Duration, m metricSet) (attempted, failed int) {
	type rec struct {
		dur, iter time.Duration // the op, and the op with the loop's own gap before it
		steal     float64       // steal share over the iteration
		ok        bool
	}
	var recs []rec
	var cleanTime time.Duration
	start := time.Now()
	prev := start
	s0, ok0 := readCPUStat()
	for i := 0; i < minOps || (cleanTime < d && time.Since(start) < stretched(d)); i++ {
		t0 := time.Now()
		err := b.op(i)
		t1 := time.Now()
		s1, ok1 := readCPUStat()
		r := rec{dur: t1.Sub(t0), iter: t1.Sub(prev), steal: stealShare(s0, ok0, s1, ok1), ok: err == nil}
		recs = append(recs, r)
		if r.steal <= maxSteal {
			cleanTime += r.iter
		}
		prev, s0, ok0 = t1, s1, ok1
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
		}
	}
	shares := make([]float64, len(recs))
	for i, r := range recs {
		shares[i] = r.steal
	}
	limit := stealLimit(shares, minOps)
	var durs []time.Duration
	var iters time.Duration
	var calls int64
	for _, r := range recs {
		if r.steal > limit {
			continue
		}
		durs = append(durs, r.dur)
		iters += r.iter
		if r.ok {
			calls += b.calls
		}
	}
	reportSteal(iters, time.Since(start), limit)
	m.set("calls_per_s", float64(calls)/sum(durs).Seconds())
	m.set("op_ms_p50", median(msAll(durs)))
	tail, p := tailPercentile(msAll(durs))
	m.set("op_ms_p99", tail)
	m.set("ops_per_s", float64(len(durs))/iters.Seconds())
	fmt.Printf("ops %d, %d reported, op_ms_p99 reports p%d\n", len(recs), len(durs), p)
	return len(recs), failed
}

// traced runs cycles of: the facade op (untraced, for the go layer),
// the facade op forced serial where that differs (for the facade's
// overhead over the serial layer composition), the composition
// untraced, the composition traced (the layer self times and the
// tracing overhead), then any extra traced roots.
func (b *batch) traced(d time.Duration, t *tracer, m metricSet) (attempted, failed int) {
	var serial, plain, traced []time.Duration
	var gc goCost
	check := func(what string, i int, err error) {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s %d: %v\n", what, i, err)
		}
	}
	// Each variant starts from a collected heap, so none pays for the
	// garbage of the one before it.
	deadline := time.Now().Add(d)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		runtime.GC()
		before := readGo()
		err := b.op(i)
		after := readGo()
		gc.add(before, after, 1)
		check("op", i, err)
		serialDur := after.wall.Sub(before.wall)
		if b.ranged {
			runtime.GC()
			t0 := time.Now()
			err = b.op(i, shc.WithVerifyWorkers(1))
			serialDur = time.Since(t0)
			check("serial op", i, err)
		}
		serial = append(serial, serialDur)

		runtime.GC()
		t0 := time.Now()
		err = b.compose(nil, -1, -1, i)
		plain = append(plain, time.Since(t0))
		check("compose", i, err)

		runtime.GC()
		op, root := t.root("op")
		err = b.compose(t, op, root, i)
		t.end(root)
		traced = append(traced, t.dur(root))
		check("traced compose", i, err)

		if b.extra != nil {
			check("extra", i, b.extra(t, i))
		}
	}
	ops := t.ops()
	layerMetrics(m, ops)
	failed += callCountFailures(ops, b.calls)
	m.set("sparsehypercube.overhead_ms", median(msAll(serial))-medianOf(withSpan(ops, "op", "op"), func(o opTrace) float64 { return ms(o.layerTime()) }))
	m.set("trace.overhead_pct", tracingOverheadPct(plain, traced))
	gc.metrics(m)
	return attempted, failed
}

// tracingOverheadPct is the median, over paired runs of one
// composition, of the traced run's extra time as a share of the
// untraced run's.
func tracingOverheadPct(plain, traced []time.Duration) float64 {
	pct := make([]float64, len(plain))
	for i := range plain {
		pct[i] = 100 * (traced[i].Seconds() - plain[i].Seconds()) / plain[i].Seconds()
	}
	return median(pct)
}

// reportOf renders a broadcast validation Result as the facade's
// Report, so layer compositions are checked against the same
// references as facade ops.
func reportOf(res *linecomm.Result) shc.Report {
	rep := shc.Report{
		Valid:         res.Valid(),
		Complete:      res.Complete,
		MinimumTime:   res.MinimumTime,
		Rounds:        len(res.InformedPerRound),
		MaxCallLength: res.MaxCallLength,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	return rep
}

// gossipReportOf is reportOf for the gossip validator.
func gossipReportOf(res *linecomm.GossipResult) shc.Report {
	rep := shc.Report{
		Valid:         res.Valid(),
		Complete:      res.Complete,
		MinimumTime:   res.MinimumTime,
		Rounds:        res.Rounds,
		MaxCallLength: res.MaxCallLength,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	return rep
}

// checkBroadcast is the answer check of a broadcast: valid, complete
// and minimum-time in exactly n rounds.
func checkBroadcast(rep shc.Report, n int) error {
	if !rep.Valid || !rep.Complete || !rep.MinimumTime || rep.Rounds != n {
		return fmt.Errorf("broadcast report %+v is not a valid minimum-time broadcast in %d rounds", rep, n)
	}
	return nil
}

// checkSame fails unless got equals the reference Report.
func checkSame(got, want shc.Report) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("report %+v differs from the reference %+v", got, want)
	}
	return nil
}

// cubes builds the facade cube and the core cube it wraps (same
// parameters, as sparsehypercube.New chooses them).
func cubes(k, n int) (*shc.Cube, *core.SparseHypercube, error) {
	cube, err := shc.New(k, n)
	if err != nil {
		return nil, nil, err
	}
	inner, err := core.NewAuto(k, n)
	if err != nil {
		return nil, nil, err
	}
	return cube, inner, nil
}

// broadcastCompose validates the broadcast from source as direct layer
// calls: core.ScheduleRounds streamed into linecomm.ValidateStream.
func broadcastCompose(t *tracer, op, parent int, inner *core.SparseHypercube, k int, source uint64) shc.Report {
	v := t.begin("linecomm.ValidateStream", parent, op)
	res := linecomm.ValidateStream(inner, k, source,
		pipe(t, op, v, "core.ScheduleRounds", "linecomm.ValidateStream", inner.ScheduleRounds(source)))
	t.end(v)
	return reportOf(res)
}

func setupVerifyGen(cfg config, seed uint64, _ string) (bench, error) {
	cube, inner, err := cubes(cfg.k, cfg.n)
	if err != nil {
		return nil, err
	}
	r := newRand(seed, "verify-gen/sources")
	sources := make([]uint64, opInputs)
	for i := range sources {
		sources[i] = r.Uint64N(cube.Order())
	}
	// Reports do not depend on the source, so one reference serves
	// every op.
	ref := cube.Plan(shc.BroadcastScheme{Source: sources[0]}).Verify()
	if err := checkBroadcast(ref, cfg.n); err != nil {
		return nil, err
	}
	check := func(rep shc.Report) error {
		if err := checkBroadcast(rep, cfg.n); err != nil {
			return err
		}
		return checkSame(rep, ref)
	}
	return &batch{
		calls: int64(cube.Order() - 1),
		op: func(i int, opts ...shc.PlanOption) error {
			return check(cube.Plan(shc.BroadcastScheme{Source: sources[i%opInputs]}, opts...).Verify())
		},
		compose: func(t *tracer, op, parent, i int) error {
			return check(broadcastCompose(t, op, parent, inner, cfg.k, sources[i%opInputs]))
		},
	}, nil
}

// poolPlan is one indexed plan file of the replay pool.
type poolPlan struct {
	path   string
	source uint64
	size   int64
	ref    shc.Report // serial Verify, computed in set-up
}

func setupReplayMmap(cfg config, seed uint64, dir string) (bench, error) {
	cube, inner, err := cubes(cfg.k, cfg.n)
	if err != nil {
		return nil, err
	}
	r := newRand(seed, "replay-mmap/pool")
	pool := make([]poolPlan, cfg.replayPool)
	for i, src := range distinct(r, cube.Order(), cfg.replayPool) {
		p := &pool[i]
		p.path, p.source = filepath.Join(dir, fmt.Sprintf("plan-%d.shcp", i)), src
		if p.size, err = writePlanFile(p.path, cube.Plan(shc.BroadcastScheme{Source: src})); err != nil {
			return nil, err
		}
		if p.ref, err = verifyFile(p.path, shc.WithVerifyWorkers(1)); err != nil {
			return nil, err
		}
		if err := checkBroadcast(p.ref, cfg.n); err != nil {
			return nil, err
		}
	}
	// Ops cycle through the pool so every run weighs each plan the same.
	plan := func(i int) *poolPlan { return &pool[i%len(pool)] }
	return &batch{
		calls:  int64(cube.Order() - 1),
		ranged: true,
		op: func(i int, opts ...shc.PlanOption) error {
			p := plan(i)
			rep, err := verifyFile(p.path, opts...)
			if err != nil {
				return err
			}
			return checkSame(rep, p.ref)
		},
		compose: func(t *tracer, op, parent, i int) error {
			p := plan(i)
			rep, err := replayCompose(t, op, parent, inner, cfg.k, p)
			if err != nil {
				return err
			}
			return checkSame(rep, p.ref)
		},
		extra: func(t *tracer, i int) error {
			p := plan(i)
			if err := encodeTraced(t, inner, cfg.k, cube.Dims(), p.source, p.size); err != nil {
				return err
			}
			op, root := t.root("modes")
			defer t.end(root)
			for _, mode := range verifyModes {
				plan, err := shc.OpenPlanFile(p.path, mode.opts...)
				if err != nil {
					return err
				}
				var rep shc.Report
				t.call(mode.span, root, op, func() { rep = plan.Verify() })
				if err := plan.Close(); err != nil {
					return err
				}
				if err := checkSame(rep, p.ref); err != nil {
					return fmt.Errorf("%s: %w", mode.span, err)
				}
			}
			return nil
		},
	}, nil
}

// verifyModes are the facade's two Verify paths on an indexed plan:
// forced serial, and the default range-parallel split.
var verifyModes = []struct {
	span string
	opts []shc.PlanOption
}{
	{"sparsehypercube.Plan.Verify/serial", []shc.PlanOption{shc.WithVerifyWorkers(1)}},
	{"sparsehypercube.Plan.Verify/parallel", nil},
}

// writePlanFile writes plan as an indexed plan file at path.
func writePlanFile(path string, plan *shc.Plan) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := plan.WriteIndexedTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	return n, nil
}

// verifyFile is the replay op: open the plan file memory-mapped,
// verify it, release the mapping.
func verifyFile(path string, opts ...shc.PlanOption) (shc.Report, error) {
	plan, err := shc.OpenPlanFile(path, opts...)
	if err != nil {
		return shc.Report{}, err
	}
	rep := plan.Verify()
	return rep, plan.Close()
}

// replayCompose is verifyFile at workers=1 as direct layer calls: map
// the file, open it with schedio.OpenPlanAt, stream its decoder into
// linecomm.ValidateStream.
func replayCompose(t *tracer, op, parent int, inner *core.SparseHypercube, k int, p *poolPlan) (shc.Report, error) {
	var (
		m   *schedio.Mapping
		err error
	)
	t.call("schedio.OpenMapping", parent, op, func() {
		var f *os.File
		if f, err = os.Open(p.path); err == nil {
			if m, err = schedio.OpenMapping(f); err != nil {
				f.Close()
			}
		}
	})
	if err != nil {
		return shc.Report{}, err
	}
	defer t.call("schedio.Mapping.Close", parent, op, func() { m.Close() })
	var at *schedio.PlanAt
	t.call("schedio.OpenPlanAt", parent, op, func() { at, err = schedio.OpenPlanAt(m, m.Size()) })
	if err != nil {
		return shc.Report{}, err
	}
	var d *schedio.Decoder
	t.call("schedio.PlanAt.NewDecoder", parent, op, func() { d, err = at.NewDecoder() })
	if err != nil {
		return shc.Report{}, err
	}
	t.add(op, "schedio.bytes", m.Size())
	v := t.begin("linecomm.ValidateStream", parent, op)
	res := linecomm.ValidateStream(inner, k, at.Header().Source,
		pipe(t, op, v, "schedio.Decoder.Rounds", "linecomm.ValidateStream", d.Rounds()))
	t.end(v)
	if err := d.Err(); err != nil {
		return shc.Report{}, fmt.Errorf("decoding %s: %w", p.path, err)
	}
	return reportOf(res), nil
}

// encodeTraced times the encoder as a root of its own: the broadcast
// from source streamed from core.ScheduleRounds into
// schedio.WriteIndexed, checked to produce want bytes.
func encodeTraced(t *tracer, inner *core.SparseHypercube, k int, dims []int, source uint64, want int64) error {
	op, root := t.root("encode")
	defer t.end(root)
	h := schedio.Header{K: k, Dims: dims, Scheme: "broadcast", Source: source}
	v := t.begin("schedio.WriteIndexed", root, op)
	n, err := schedio.WriteIndexed(io.Discard, h,
		pipe(t, op, v, "core.ScheduleRounds", "schedio.WriteIndexed", inner.ScheduleRounds(source)))
	t.end(v)
	if err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("encoded %d bytes, the facade wrote %d", n, want)
	}
	t.add(op, "schedio.bytes", n)
	return nil
}

func setupGossipSampled(cfg config, seed uint64, _ string) (bench, error) {
	cube, inner, err := cubes(cfg.k, cfg.n)
	if err != nil {
		return nil, err
	}
	r := newRand(seed, "gossip-sampled/inputs")
	root := r.Uint64N(cube.Order())
	sources := distinct(r, cube.Order(), cfg.gossipSources)
	scheme := shc.MultiSourceScheme{Root: root, Sources: sources}
	check := func(rep shc.Report) error {
		if !rep.Valid || !rep.Complete || rep.Rounds != 2*cfg.n {
			return fmt.Errorf("gossip report %+v is not valid and complete in %d rounds", rep, 2*cfg.n)
		}
		return nil
	}
	ref := cube.Plan(scheme).Verify()
	if err := check(ref); err != nil {
		return nil, err
	}
	return &batch{
		calls: int64(2 * (cube.Order() - 1)),
		op: func(_ int, opts ...shc.PlanOption) error {
			rep := cube.Plan(scheme, opts...).Verify()
			if err := check(rep); err != nil {
				return err
			}
			return checkSame(rep, ref)
		},
		compose: func(t *tracer, op, parent, _ int) error {
			v := t.begin("linecomm.ValidateMultiSourceStream", parent, op)
			res := linecomm.ValidateMultiSourceStream(inner, cfg.k, sources,
				pipe(t, op, v, "core.ScheduleGossipRounds", "linecomm.ValidateMultiSourceStream", inner.ScheduleGossipRounds(root)))
			t.end(v)
			return checkSame(gossipReportOf(res), ref)
		},
	}, nil
}
