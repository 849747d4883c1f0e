package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
	"capsys/internal/statebackend"
	"capsys/internal/telemetry"
)

// engineRig is one engine workload's fixed deployment: the query at its
// modelled target rate, the two-worker cluster model CAPS places it on, and
// the engine workers that run it. The engine's meters are sized so they
// never throttle and profiled per-record CPU is not charged, so the run
// measures the program rather than the contention model.
type engineRig struct {
	spec      nexmark.QuerySpec
	model     *cluster.Cluster
	seed      int64
	transport string
	// fold hashes one sink record into the output digest with a weight.
	fold func(engine.Record) (uint64, int64)
	// setups and decisions are per-call set-up and placement CPU times in
	// seconds, pooled over the run's set-ups.
	setups, decisions []float64
}

// benchWorkers are the engine's two workers: the same slot counts as the
// cluster model, with meters far above anything one process can drive.
func benchWorkers(model *cluster.Cluster) engine.ClusterSpec {
	spec := engine.ClusterSpec{}
	for i := 0; i < model.NumWorkers(); i++ {
		w := model.Worker(i)
		spec.Workers = append(spec.Workers, engine.WorkerSpec{
			ID: w.ID, Slots: w.Slots, Cores: 1e6, IOBps: 1e12, NetBps: 1e15,
		})
	}
	return spec
}

// twoWorkerModel is the cluster CAPS and the simulator see: two of the
// paper's reference workers (4 cores, 200 MB/s state I/O, 10 Gbit/s).
func twoWorkerModel(slots int) (*cluster.Cluster, error) {
	return cluster.Homogeneous(2, slots, 4.0, 200e6, 1.25e9)
}

func usageOf(g *dataflow.LogicalGraph, rates map[dataflow.OperatorID]float64) (*costmodel.Usage, error) {
	rp, err := dataflow.PropagateRates(g, rates)
	if err != nil {
		return nil, err
	}
	return costmodel.FromRates(g, rp), nil
}

// placed is a CAPS placement of the rig's query and how the simulator
// scores it.
type placed struct {
	phys     *dataflow.PhysicalGraph
	plan     *dataflow.Plan
	usage    *costmodel.Usage
	tputFrac float64
}

// place expands the query, prices it and places it, then scores the plan
// on the simulator.
func (r *engineRig) place(ctx context.Context) (*placed, error) {
	phys, err := dataflow.Expand(r.spec.Graph)
	if err != nil {
		return nil, err
	}
	u, err := usageOf(r.spec.Graph, r.spec.SourceRates)
	if err != nil {
		return nil, err
	}
	plan, err := placement.CAPS{}.Place(ctx, phys, r.model, u, r.seed)
	if err != nil {
		return nil, fmt.Errorf("initial placement: %w", err)
	}
	sim, err := simulator.Evaluate([]simulator.QueryDeployment{{
		Name: r.spec.Name, Phys: phys, Plan: plan, SourceRates: r.spec.SourceRates,
	}}, r.model, simulator.DefaultConfig())
	if err != nil {
		return nil, err
	}
	q := sim.Queries[r.spec.Name]
	return &placed{phys: phys, plan: plan, usage: u, tputFrac: q.Throughput / q.Target}, nil
}

// setup times everything before the first record is due — graph build and
// expansion, initial placement and NewJob — and, on its own, the placement
// decision, adding per-call CPU times to the rig's samples (see
// repeatTimed), and returns the placement. Workloads set up at several
// points of a run, so the samples span the run.
func (r *engineRig) setup(ctx context.Context, build func() nexmark.QuerySpec) (*placed, error) {
	var p *placed
	setups, err := repeatTimed(func() error {
		r.spec = scaledToTwoWorkers(build())
		var err error
		if p, err = r.place(ctx); err != nil {
			return err
		}
		bind, err := nexmark.BindEngine(r.spec, r.seed)
		if err != nil {
			return err
		}
		_, err = engine.NewJob(r.spec.Graph, p.plan, benchWorkers(r.model), bind.Factories, engine.JobOptions{
			RecordsPerSource: 1, Transport: r.transport, Stateful: bind.Stateful,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	decisions, err := repeatTimed(func() error {
		_, err := placement.CAPS{}.Place(ctx, p.phys, r.model, p.usage, r.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, setups...)
	r.decisions = append(r.decisions, decisions...)
	return p, nil
}

// reportSetup sets setup_s and decision_cpu_s to the medians of the rig's
// samples, and plan_tput_frac from the placement.
func (r *engineRig) reportSetup(rep *report, p *placed) {
	rep.set("setup_s", median(r.setups))
	rep.set("decision_cpu_s", median(r.decisions))
	rep.set("plan_tput_frac", p.tputFrac)
}

// Set-ups take microseconds to milliseconds, too little to time one at a
// time steadily: repeatTimed times setupBatches batches of back-to-back
// calls, each at least setupBatchTime of process CPU long, after
// setupWarmup batches it discards (the first calls run on a cold heap and
// caches), and returns each batch's mean CPU time per call, in seconds
// (see cpuNow).
const (
	setupWarmup    = 3
	setupBatches   = 11
	setupBatchTime = 30 * time.Millisecond
)

func repeatTimed(fn func() error) ([]float64, error) {
	// Start from a collected heap, so garbage an earlier phase left does
	// not charge its collection to the set-up.
	runtime.GC()
	var perCall []float64
	for b := 0; b < setupWarmup+setupBatches; b++ {
		t0 := cpuNow()
		n := 0
		for cpuNow()-t0 < setupBatchTime {
			if err := fn(); err != nil {
				return nil, err
			}
			n++
		}
		if b >= setupWarmup {
			perCall = append(perCall, (cpuNow()-t0).Seconds()/float64(n))
		}
	}
	return perCall, nil
}

// scaledToTwoWorkers scales a query's target rate, set for the paper's
// four-worker reference cluster, to the two-worker model.
func scaledToTwoWorkers(spec nexmark.QuerySpec) nexmark.QuerySpec {
	return spec.Scaled(0.5)
}

// phase configures one job run of an engine workload.
type phase struct {
	// records is the record count per source task; zero runs unbounded
	// until limit elapses.
	records int64
	limit   time.Duration
	// rate is the aggregate open-loop source rate; zero is uncapped. An
	// open-loop job records the generator's lag and every sink arrival.
	rate             float64
	snapshotInterval int64
	// rescales and crashes are the job's reconfigurations; a job with any
	// is re-placed by CAPS and records the engine's trace events, each
	// stamped with the process CPU time at which it was emitted.
	rescales []engine.RescalePlan
	crashes  []engine.TaskCrash
	// traced wraps every operator and source (see tracedOp), captures
	// state images and record samples for the replay probes, and records
	// the engine's trace events.
	traced bool
}

// reconfigures reports whether the job has scheduled reconfigurations.
func (ph phase) reconfigures() bool { return len(ph.rescales) > 0 || len(ph.crashes) > 0 }

// A traced job snapshots each stateful task's namespace once, after
// captureStateAt input records or at end of input, whichever comes first,
// and keeps the first captureBatch records each operator task sees.
const (
	captureStateAt = 8192
	captureBatch   = 1024
)

// phaseResult is what one job run leaves for the checks and metrics.
type phaseResult struct {
	res     *engine.JobResult
	sched   schedule
	sources *sourceProbe
	sinks   *sinkProbe
	ops     map[dataflow.OperatorID][]*tracedOp
	tel     *telemetry.Telemetry
	// cpuAt is the process CPU time at each trace event, by sequence
	// number (see cpuStamps).
	cpuAt *cpuStamps
	usage processUsage
	// replaceMS are the benchmark's re-placement hook times, in process
	// CPU milliseconds.
	replaceMS []float64
}

// run deploys the placed query with the phase's options and runs it.
func (r *engineRig) run(ctx context.Context, p *placed, ph phase) (*phaseResult, error) {
	// Every job starts from a collected heap, so it does not pay for the
	// garbage the previous one left.
	runtime.GC()
	bind, err := nexmark.BindEngine(r.spec, r.seed)
	if err != nil {
		return nil, err
	}
	out := &phaseResult{
		sources: &sourceProbe{},
		sinks:   &sinkProbe{fold: r.fold, arrivals: ph.rate > 0},
		ops:     make(map[dataflow.OperatorID][]*tracedOp),
	}
	var opsMu sync.Mutex
	factories := make(map[dataflow.OperatorID]engine.Factory, len(bind.Factories))
	for _, op := range r.spec.Graph.Operators() {
		id := op.ID
		inner := bind.Factories[id]
		if len(r.spec.Graph.Downstream(id)) == 0 {
			inner = out.sinks.factory()
		}
		if len(r.spec.Graph.Upstream(id)) == 0 {
			factories[id] = out.sources.factory(inner, ph.traced)
			continue
		}
		if !ph.traced {
			factories[id] = inner
			continue
		}
		capture := int64(0)
		if bind.Stateful[id] {
			capture = captureStateAt
		}
		factories[id] = func(tc *engine.TaskContext) (any, error) {
			inst, err := inner(tc)
			if err != nil {
				return nil, err
			}
			o, ok := inst.(engine.Operator)
			if !ok {
				return nil, fmt.Errorf("operator %s built %T", id, inst)
			}
			t := newTracedOp(o, tc.State, capture, captureBatch)
			opsMu.Lock()
			defer opsMu.Unlock()
			out.ops[id] = append(out.ops[id], t)
			return t, nil
		}
	}
	records := ph.records
	if records == 0 {
		records = 1 << 40
	}
	if ph.traced || ph.reconfigures() {
		out.tel = telemetry.New()
		out.cpuAt = &cpuStamps{}
		out.tel.Tracer().SetSink(out.cpuAt)
	}
	hooks := &replacer{rig: r, cur: p.plan, over: map[dataflow.OperatorID]int{}}
	opts := engine.JobOptions{
		RecordsPerSource: records,
		Transport:        r.transport,
		Stateful:         bind.Stateful,
		SnapshotInterval: ph.snapshotInterval,
		Rescales:         ph.rescales,
		FaultPlan:        engine.FaultPlan{CrashTasks: ph.crashes},
		Telemetry:        out.tel,
	}
	if ph.reconfigures() {
		opts.OnRescale = func(ev engine.RescaleEvent, _ *dataflow.Plan, _ *dataflow.PhysicalGraph) (*dataflow.Plan, error) {
			return hooks.rescale(ctx, ev)
		}
		opts.OnFailure = func(engine.FailureEvent) (*dataflow.Plan, error) {
			return hooks.replace(ctx)
		}
	}
	job, err := engine.NewJob(r.spec.Graph, p.plan, benchWorkers(r.model), factories, opts)
	if err != nil {
		return nil, err
	}
	runCtx := ctx
	if ph.records == 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, ph.limit)
		defer cancel()
	}
	srcPar := 0
	for _, op := range r.spec.Graph.Sources() {
		srcPar += op.Parallelism
	}
	before := readProcessUsage()
	if ph.rate > 0 {
		out.sched = newSchedule(time.Now(), ph.rate, srcPar)
		out.sources.sched, out.sources.paced = out.sched, true
	}
	res, err := job.Run(runCtx)
	if err != nil {
		return nil, err
	}
	out.usage = readProcessUsage().since(before)
	out.res = res
	out.replaceMS = hooks.times
	return out, nil
}

// rate is the job's admitted source records per second.
func (ph *phaseResult) rate() float64 {
	return float64(ph.res.SourceRecords) / ph.res.Elapsed.Seconds()
}

// cpuRate is the job's admitted source records per second of process CPU
// time.
func (ph *phaseResult) cpuRate() float64 {
	return float64(ph.res.SourceRecords) / ph.usage.cpu.Seconds()
}

// cpuStamps is a trace sink that keeps, for every event the tracer emits,
// the process CPU time at its emission. The tracer writes one line per
// event, in sequence order, while it holds its lock, so the k-th write is
// the event with sequence number k.
type cpuStamps struct {
	mu sync.Mutex
	at []time.Duration
}

func (c *cpuStamps) Write(b []byte) (int, error) {
	now := cpuNow()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.at = append(c.at, now)
	return len(b), nil
}

// of returns the CPU time at the event with sequence number seq.
func (c *cpuStamps) of(seq int64) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < 0 || seq >= int64(len(c.at)) {
		return 0, false
	}
	return c.at[seq], true
}

// reportThroughput sets ops_per_cpu_s from the median of the jobs' CPU
// time per record.
func reportThroughput(r *report, jobs []*phaseResult) {
	var rates, wall, cost []float64
	for _, j := range jobs {
		rates = append(rates, j.cpuRate())
		wall = append(wall, j.rate())
		cost = append(cost, 1/j.cpuRate())
	}
	r.set("ops_per_cpu_s", 1/median(cost))
	r.note("throughput: %d jobs at %.0f rec/CPU-s, %.0f rec/s", len(rates), rates, wall)
}

// sourceCounts returns the records each source task of op admitted, as the
// engine counted them (restored counters make this exactly-once).
func sourceCounts(res *engine.JobResult, op dataflow.OperatorID, par int) []int64 {
	out := make([]int64, par)
	for i := range out {
		out[i] = res.Tasks[dataflow.TaskID{Op: op, Index: i}].RecordsOut
	}
	return out
}

// replacer is the benchmark's re-placement hook: every rescale and every
// recovery is re-placed by CAPS warm-started from the running plan, on the
// topology actually running.
type replacer struct {
	rig   *engineRig
	cur   *dataflow.Plan
	over  map[dataflow.OperatorID]int
	times []float64
}

func (h *replacer) rescale(ctx context.Context, ev engine.RescaleEvent) (*dataflow.Plan, error) {
	h.over[ev.Op] = ev.NewParallelism
	return h.replace(ctx)
}

func (h *replacer) replace(ctx context.Context) (*dataflow.Plan, error) {
	t0 := cpuNow()
	_, next, err := rePlace(ctx, placement.CAPS{}, h.rig.spec.Graph, h.over, h.rig.spec.SourceRates, h.rig.model, h.rig.seed, h.cur)
	if err != nil {
		return nil, err
	}
	h.times = append(h.times, float64(cpuNow()-t0)/1e6)
	h.cur = next
	return next, nil
}

// rePlace is the benchmark's one re-placement path, the one
// controller.RunRescale takes: the base graph rescaled by over is priced at
// the source rates and placed by strat, warm-started from the running
// plan's assignment of the tasks that survive, or cold if cur is nil.
func rePlace(ctx context.Context, strat placement.WarmPlacer, base *dataflow.LogicalGraph, over map[dataflow.OperatorID]int, rates map[dataflow.OperatorID]float64, c *cluster.Cluster, seed int64, cur *dataflow.Plan) (*dataflow.PhysicalGraph, *dataflow.Plan, error) {
	phys, u, err := rescaledTopology(base, over, rates)
	if err != nil {
		return nil, nil, err
	}
	var prev *dataflow.Plan
	if cur != nil {
		tasks := phys.Tasks()
		prev = dataflow.NewPlanSized(len(tasks))
		for _, t := range tasks {
			if w, ok := cur.Worker(t); ok {
				prev.Assign(t, w)
			}
		}
	}
	next, err := strat.PlaceWarm(ctx, phys, c, u, seed, prev)
	if err != nil {
		return nil, nil, fmt.Errorf("re-placement: %w", err)
	}
	return phys, next, nil
}

// rescaledTopology expands the base graph rescaled by over and prices it
// at the source rates.
func rescaledTopology(base *dataflow.LogicalGraph, over map[dataflow.OperatorID]int, rates map[dataflow.OperatorID]float64) (*dataflow.PhysicalGraph, *costmodel.Usage, error) {
	g, err := base.Rescale(over)
	if err != nil {
		return nil, nil, err
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		return nil, nil, err
	}
	u, err := usageOf(g, rates)
	if err != nil {
		return nil, nil, err
	}
	return phys, u, nil
}

// sourceProbe wraps every source task: it paces an open-loop phase on the
// schedule, records how late the generator ran, and in a traced run times
// the generator's Next.
type sourceProbe struct {
	sched     schedule
	paced     bool
	mu        sync.Mutex
	instances []*probedSource
}

func (p *sourceProbe) factory(inner engine.Factory, traced bool) engine.Factory {
	return func(tc *engine.TaskContext) (any, error) {
		inst, err := inner(tc)
		if err != nil {
			return nil, err
		}
		src, ok := inst.(engine.Source)
		if !ok {
			return nil, fmt.Errorf("source %s built %T", tc.Op, inst)
		}
		s := &probedSource{inner: src, p: p, traced: traced}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.instances = append(p.instances, s)
		return s, nil
	}
}

// lags returns every recorded generator lag in milliseconds.
func (p *sourceProbe) lags() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for _, s := range p.instances {
		out = append(out, s.lagMS...)
	}
	return out
}

// nextTotals sums the traced Next calls and their time.
func (p *sourceProbe) nextTotals() (calls, ns int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.instances {
		calls += s.calls
		ns += s.nextNS
	}
	return calls, ns
}

type probedSource struct {
	inner  engine.Source
	p      *sourceProbe
	traced bool
	lagMS  []float64
	calls  int64
	nextNS int64
}

func (s *probedSource) Open(tc *engine.TaskContext) error { return s.inner.Open(tc) }

func (s *probedSource) Next(i int64) (engine.Record, bool) {
	if s.p.paced {
		now := time.Now()
		if d := s.p.sched.due(i).Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		s.lagMS = append(s.lagMS, s.p.sched.lagMS(i, now))
	}
	if !s.traced {
		return s.inner.Next(i)
	}
	t0 := time.Now()
	rec, ok := s.inner.Next(i)
	s.nextNS += int64(time.Since(t0))
	s.calls++
	return rec, ok
}

// sinkProbe builds the sink tasks: each folds its input into an output
// digest it checkpoints with the job, so the final attempt's digests hold
// the job's exactly-once output, and optionally records arrival times.
type sinkProbe struct {
	fold      func(engine.Record) (uint64, int64)
	arrivals  bool
	mu        sync.Mutex
	instances []*digestSink
	final     map[int]*digestSink
}

func (p *sinkProbe) factory() engine.Factory {
	return func(tc *engine.TaskContext) (any, error) {
		s := &digestSink{p: p}
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.final == nil {
			p.final = make(map[int]*digestSink)
		}
		p.final[tc.Index] = s
		p.instances = append(p.instances, s)
		return s, nil
	}
}

// output merges the final attempt's sink digests.
func (p *sinkProbe) output() digest {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d digest
	for _, s := range p.final {
		d.merge(s.d)
	}
	return d
}

// arrivalSamples returns every sink arrival: the record's event time and
// its arrival in Unix nanoseconds.
func (p *sinkProbe) arrivalSamples() (times, at []int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.instances {
		times = append(times, s.times...)
		at = append(at, s.at...)
	}
	return times, at
}

type digestSink struct {
	p     *sinkProbe
	d     digest
	times []int64
	at    []int64
}

func (s *digestSink) Open(*engine.TaskContext) error { return nil }

func (s *digestSink) Process(rec engine.Record, _ int, _ engine.Emit) error {
	h, w := s.p.fold(rec)
	s.d.add(h, w)
	if s.p.arrivals {
		s.times = append(s.times, rec.Time)
		s.at = append(s.at, time.Now().UnixNano())
	}
	return nil
}

func (s *digestSink) Close(engine.Emit) error { return nil }

// SnapshotState checkpoints the digest with the job.
func (s *digestSink) SnapshotState() ([]byte, error) { return json.Marshal(s.d) }

// RestoreState rolls the digest back to a checkpoint.
func (s *digestSink) RestoreState(b []byte) error { return json.Unmarshal(b, &s.d) }

// tracedOp wraps an operator from the outside: it times Process minus the
// time spent inside emit, counts records in and out, and can capture a
// state image and a sample of input records for the replay probes.
type tracedOp struct {
	inner  engine.Operator
	down   engine.Emit
	emitFn engine.Emit
	state  *statebackend.Namespace

	in, out        int64
	selfNS, emitNS int64
	stateBytesPeak int64
	// snapshotBytes sums the stored state at each checkpoint barrier.
	snapshotBytes int64

	captureAt int64
	image     []byte
	sampleCap int
	sample    []engine.Record
}

func newTracedOp(inner engine.Operator, ns *statebackend.Namespace, captureAt int64, sampleCap int) *tracedOp {
	t := &tracedOp{inner: inner, state: ns, captureAt: captureAt, sampleCap: sampleCap}
	t.emitFn = t.emit
	return t
}

func (t *tracedOp) Open(tc *engine.TaskContext) error { return t.inner.Open(tc) }

func (t *tracedOp) Process(rec engine.Record, in int, emit engine.Emit) error {
	t.down = emit
	e0 := t.emitNS
	t0 := time.Now()
	err := t.inner.Process(rec, in, t.emitFn)
	t.selfNS += int64(time.Since(t0)) - (t.emitNS - e0)
	t.in++
	if len(t.sample) < t.sampleCap {
		t.sample = append(t.sample, rec)
	}
	if t.state != nil && t.in%256 == 0 {
		if b := int64(t.state.StoredBytes()); b > t.stateBytesPeak {
			t.stateBytesPeak = b
		}
		if t.in >= t.captureAt {
			if err := t.captureImage(); err != nil {
				return err
			}
		}
	}
	return err
}

func (t *tracedOp) emit(rec engine.Record) {
	t0 := time.Now()
	t.down(rec)
	t.emitNS += int64(time.Since(t0))
	t.out++
}

// captureImage snapshots the task's state once, if capturing is on.
func (t *tracedOp) captureImage() error {
	if t.captureAt == 0 || t.image != nil {
		return nil
	}
	img, err := t.state.Snapshot()
	t.image = img
	return err
}

func (t *tracedOp) Close(emit engine.Emit) error {
	// A task that never reached captureAt records is captured before its
	// windows flush at end of input.
	if t.state != nil {
		if err := t.captureImage(); err != nil {
			return err
		}
	}
	t.down = emit
	return t.inner.Close(t.emitFn)
}

// SnapshotState forwards the wrapped operator's checkpoint image, so a
// traced job checkpoints, rescales and restores exactly like an untraced
// one.
func (t *tracedOp) SnapshotState() ([]byte, error) {
	if t.state != nil {
		t.snapshotBytes += int64(t.state.StoredBytes())
	}
	if s, ok := t.inner.(engine.Snapshotter); ok {
		return s.SnapshotState()
	}
	return nil, nil
}

// RestoreState forwards to the wrapped operator.
func (t *tracedOp) RestoreState(b []byte) error {
	if s, ok := t.inner.(engine.Snapshotter); ok {
		return s.RestoreState(b)
	}
	return nil
}
