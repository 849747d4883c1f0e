package controller

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"capsys/internal/clock"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/telemetry"
)

// This file is the control plane of the distributed runtime: a Coordinator
// process deploys one engine attempt per worker process and supervises the
// run, and JoinCluster is the worker-side loop. Control traffic uses the
// engine's length-prefixed frame codec over one TCP connection per worker;
// the data plane (records, barriers, credits) flows worker-to-worker over
// the engine's network transport and never touches the coordinator.
//
// Per attempt the protocol is two-phase:
//
//	coordinator -> worker  DEPLOY  {spec: query, plan, restore snapshots}
//	worker -> coordinator  READY   {bound data-plane address}
//	coordinator -> worker  START   {all peers' data addresses}
//	worker -> coordinator  EPOCH_START | SNAPSHOT | HEARTBEAT | PEERDOWN ...
//	worker -> coordinator  DONE    {final report}
//
// Checkpoint snapshots stream to the coordinator as they are taken, so the
// checkpoint store of its engine.Reconfig plays the role of durable remote
// checkpoint storage: state survives any worker's death. Failure detection
// is control-plane liveness — a broken worker connection or missed
// heartbeats — plus workers' PEERDOWN reports. Every restart (worker death,
// data-plane failure, live rescale) aborts the survivors and hands the
// decision to the same reconfiguration core the in-process engine uses,
// which picks the restore epoch and validates the next plan.

// TaskAssignment is one task-to-worker placement in wire-safe form.
type TaskAssignment struct {
	Task   engine.WireTaskID
	Worker int
}

// AssignmentsOf flattens a plan into wire-safe assignments (deterministic
// order).
func AssignmentsOf(phys *dataflow.PhysicalGraph, plan *dataflow.Plan) ([]TaskAssignment, error) {
	var out []TaskAssignment
	for _, t := range phys.Tasks() {
		w, ok := plan.Worker(t)
		if !ok {
			return nil, fmt.Errorf("controller: task %v unassigned", t)
		}
		out = append(out, TaskAssignment{
			Task:   engine.WireTaskID{Op: string(t.Op), Index: t.Index},
			Worker: w,
		})
	}
	return out, nil
}

// DeploySpec is everything a worker process needs to build its share of a
// job: the query identity and options (so every process derives the same
// deterministic graph, factories and generators), the full cluster spec and
// plan (so the cross-worker channel census agrees across processes), and
// the attempt-specific restore state.
type DeploySpec struct {
	Query            string
	Seed             int64
	RecordsPerSource int64
	SnapshotInterval int64
	ChannelCapacity  int
	BatchSize        int
	BatchLinger      time.Duration
	DisableFusion    bool
	CPUCostScale     float64
	Workers          []engine.WorkerSpec
	Assign           []TaskAssignment
	// KeyGroups is the job's key-group count, pinned by the coordinator so
	// every worker (and every attempt, across rescales) routes keyed records
	// and partitions keyed state identically. Zero lets each worker resolve
	// the engine default — only safe when no rescale will ever run.
	KeyGroups int
	// Rescaled carries per-operator parallelism overrides from applied live
	// rescales; workers rebuild the query graph with these parallelisms, so
	// a redeploy after a rescale derives the rescaled topology everywhere.
	Rescaled []OpParallelism

	// Attempt-specific, filled by the coordinator per deploy.
	Attempt      int
	Local        int
	RestoreEpoch int64
	Snapshots    []engine.WireSnapshot
}

// OpParallelism is one operator's parallelism override in wire-safe form.
type OpParallelism struct {
	Op          string
	Parallelism int
}

// Plan reconstructs the dataflow plan from the wire-safe assignments (nil
// if a task is assigned twice).
func (d DeploySpec) Plan() *dataflow.Plan {
	p, _ := planOf(d.Assign)
	return p
}

// JobBuilder builds the worker-local engine job for one deploy. The job
// must use the network transport; its graph, factories and options must be
// a pure function of the spec — every worker (and every attempt) derives
// identical wiring from it.
type JobBuilder func(spec DeploySpec) (*engine.Job, error)

// NexmarkBuilder resolves DeploySpec.Query against the built-in benchmark
// queries — the standard builder for caplive worker processes.
func NexmarkBuilder() JobBuilder {
	return NexmarkBuilderWith(nil)
}

// NexmarkBuilderWith is NexmarkBuilder with the worker's telemetry hub
// wired into every built job, so each attempt's engine instrumentation
// (wire counters, latency histograms, saturation gauges, tracer events)
// lands in the hub the heartbeat sampler and trace feed read from.
func NexmarkBuilderWith(tel *telemetry.Telemetry) JobBuilder {
	return func(spec DeploySpec) (*engine.Job, error) {
		q, graph, err := deployGraph(spec)
		if err != nil {
			return nil, err
		}
		binding, err := nexmark.BindEngine(q, spec.Seed)
		if err != nil {
			return nil, err
		}
		if spec.CPUCostScale > 0 && spec.CPUCostScale != 1 {
			for op := range binding.PerRecordCPU {
				binding.PerRecordCPU[op] *= spec.CPUCostScale
			}
		}
		opts := engine.JobOptions{
			RecordsPerSource: spec.RecordsPerSource,
			SnapshotInterval: spec.SnapshotInterval,
			ChannelCapacity:  spec.ChannelCapacity,
			Transport:        engine.TransportNetwork,
			BatchSize:        spec.BatchSize,
			BatchLinger:      spec.BatchLinger,
			DisableFusion:    spec.DisableFusion,
			Stateful:         binding.Stateful,
			PerRecordCPU:     binding.PerRecordCPU,
			KeyGroups:        spec.KeyGroups,
			Telemetry:        tel,
		}
		return engine.NewJob(graph, spec.Plan(), engine.ClusterSpec{Workers: spec.Workers}, binding.Factories, opts)
	}
}

// deployGraph resolves a deploy spec's query and applies its rescale
// overrides. Workers build their jobs on it and the coordinator its
// reconfiguration core, so both sides derive the same topology.
func deployGraph(spec DeploySpec) (nexmark.QuerySpec, *dataflow.LogicalGraph, error) {
	q, err := nexmark.ByName(spec.Query)
	if err != nil {
		return q, nil, err
	}
	if len(spec.Rescaled) == 0 {
		return q, q.Graph, nil
	}
	over := make(map[dataflow.OperatorID]int, len(spec.Rescaled))
	for _, r := range spec.Rescaled {
		over[dataflow.OperatorID(r.Op)] = r.Parallelism
	}
	g, err := q.Graph.Rescale(over)
	if err != nil {
		return q, nil, fmt.Errorf("controller: applying rescale overrides: %w", err)
	}
	return q, g, nil
}

// Control-plane frame payloads.
type (
	wireJoin    struct{ Proto int }
	wireWelcome struct{ Worker int }
	wireReady   struct {
		Attempt int
		Addr    string
	}
	wireStart struct {
		Attempt int
		Peers   map[int]string
	}
	wireEpoch struct {
		Attempt int
		Epoch   int64
	}
	wireSnap struct {
		Attempt int
		Snap    engine.WireSnapshot
	}
	wireReport struct{ Report *engine.WorkerReport }
	wirePeer   struct {
		Attempt int
		Peer    int
	}
)

// distProtoVersion 2 grew the observability plane: HEARTBEAT frames carry
// an optional wireHeartbeat stats payload and workers may send TRACE
// frames. Version 3 added live rescaling: DEPLOY specs carry the pinned
// key-group count and per-operator parallelism overrides, which an older
// worker would silently ignore and build the wrong topology — so the
// version gates the join handshake.
const distProtoVersion = 3

// errEncodePayload marks a send that failed locally while gob-encoding the
// body — the data was unencodable or too large (MaxFramePayload), which
// says nothing about the peer's health. Callers deciding recovery must
// check for it: treating an encode failure as a connection error would
// "recover" against a perfectly healthy worker, and since the oversized
// data persists, every retry would kill another worker until the whole
// cluster is declared dead.
var errEncodePayload = errors.New("controller: encode frame payload")

// connWriter serializes frame writes on one control connection.
type connWriter struct {
	mu sync.Mutex
	c  net.Conn
}

func (w *connWriter) send(typ byte, body any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = engine.EncodePayload(body)
		if err != nil {
			return fmt.Errorf("%w: %v", errEncodePayload, err)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return engine.WriteFrame(w.c, engine.Frame{Type: typ, Payload: payload})
}

// ---------------------------------------------------------------------------
// coordinator

// CoordinatorOptions tunes supervision.
type CoordinatorOptions struct {
	// HeartbeatTimeout declares a worker dead when no frame (heartbeats
	// included) arrives for this long (default 5s). Connection errors are
	// detected immediately regardless.
	HeartbeatTimeout time.Duration
	// StopTimeout bounds how long recovery waits for an aborted worker's
	// STOPPED report before giving up on it (default 10s).
	StopTimeout time.Duration
	// Replan re-places the dead workers' tasks onto survivors. Nil means
	// worker loss is fatal.
	Replan func(dead []int, attempt int) ([]TaskAssignment, error)
	// Rescales schedules live parallelism changes: each plan triggers at the
	// first globally complete checkpoint epoch >= its AtEpoch, draining the
	// cluster to that epoch, repartitioning the operator's key-groups in the
	// coordinator's snapshot store, and redeploying every worker on the
	// rescaled topology. More can be added at runtime via ScheduleRescale.
	// Surviving tasks stay put; new tasks pack onto the lowest-index live
	// workers with free slots.
	Rescales []engine.RescalePlan
	// Logf, when set, receives progress lines ("checkpoint: epoch 3
	// complete", "worker 1 dead: ...").
	Logf func(format string, args ...any)
	// Telemetry, when set, turns the coordinator into the cluster's
	// aggregation point: worker heartbeat stats merge into its registry
	// (see clusterstats.go), worker trace batches merge into its tracer,
	// and ClusterHandler serves the combined view. Nil disables
	// aggregation; heartbeats degrade to pure liveness.
	Telemetry *telemetry.Telemetry
	// Now is the liveness clock (default the system clock). Tests inject
	// Step/Fixed clocks to drive heartbeat-timeout decisions
	// deterministically; tickers and deadlines stay on real time.
	Now clock.Clock
}

// Coordinator supervises one distributed job across worker processes.
type Coordinator struct {
	ln   net.Listener
	spec DeploySpec
	n    int
	opts CoordinatorOptions
	// rc is the reconfiguration core: graph, plan, checkpoint store,
	// pending rescales and restart accounting. The supervision loop drives
	// it; ScheduleRescale may queue into it from any goroutine.
	rc  *engine.Reconfig
	clk clock.Clock
	agg clusterAgg

	// connMu orders WaitJoined's appends to conns against connSnapshot
	// reads from HTTP handlers; once the cluster is complete the slice is
	// append-free and the supervision loop reads it directly.
	connMu sync.Mutex
	conns  []*coordConn
	events chan coordEvent

	// curAttempt is the attempt currently deployed (0 before the first),
	// exported on /healthz.
	curAttempt atomic.Int64

	// dpRestarts counts attempts restarted for data-plane-only failures
	// (PEERDOWN reports whose accused peer was still control-plane live);
	// bounded by maxDataPlaneRestarts before escalating to a worker death.
	dpRestarts int
	// faults records worker deaths for the result. Only the supervision
	// loop touches it.
	faults []engine.FaultRecord
}

type coordConn struct {
	w         *connWriter
	c         net.Conn
	addr      string       // remote address, for the /workers roster
	lastSeen  atomic.Int64 // unix nanos of the last frame received
	alive     atomic.Bool  // false once the supervision loop declares it dead
	lastEpoch atomic.Int64 // last checkpoint epoch this worker started
}

// coordEvent is one worker's frame (or terminal read error) as seen by the
// supervision loop.
type coordEvent struct {
	worker int
	frame  engine.Frame
	err    error
}

// NewCoordinator binds the control listener for a cluster of `workers`
// worker processes. spec's attempt-specific fields are ignored; the
// coordinator fills them per deploy.
func NewCoordinator(listen string, spec DeploySpec, workers int, opts CoordinatorOptions) (*Coordinator, error) {
	if workers <= 0 || workers > len(spec.Workers) {
		return nil, fmt.Errorf("controller: %d worker processes for a %d-worker spec", workers, len(spec.Workers))
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	if opts.StopTimeout <= 0 {
		opts.StopTimeout = 10 * time.Second
	}
	_, graph, err := deployGraph(spec)
	if err != nil {
		return nil, err
	}
	rc, err := engine.NewReconfig(engine.ReconfigConfig{
		Graph:            graph,
		Plan:             spec.Plan(),
		Cluster:          engine.ClusterSpec{Workers: spec.Workers},
		KeyGroups:        spec.KeyGroups,
		SnapshotInterval: spec.SnapshotInterval,
		Now:              opts.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("controller: deploy spec: %w", err)
	}
	// Pin the key-group count so every worker, every attempt, and the
	// core's own repartitioning agree on how keyed state and keyed routing
	// partition — before and after any rescale.
	spec.KeyGroups = rc.KeyGroups()
	co := &Coordinator{
		spec:   spec,
		n:      workers,
		opts:   opts,
		rc:     rc,
		clk:    opts.Now.OrSystem(),
		agg:    clusterAgg{tel: opts.Telemetry},
		events: make(chan coordEvent, 64),
	}
	for _, p := range opts.Rescales {
		if err := co.ScheduleRescale(p); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	co.ln = ln
	return co, nil
}

// ScheduleRescale queues a live parallelism change, validated as
// Job.Rescale is. Safe from any goroutine while the coordinator runs.
func (co *Coordinator) ScheduleRescale(p engine.RescalePlan) error {
	return co.rc.Schedule(p)
}

// Addr is the bound control-plane address workers join.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

func (co *Coordinator) logf(format string, args ...any) {
	if co.opts.Logf != nil {
		co.opts.Logf(format, args...)
	}
}

// workerID renders worker w's cluster-spec ID ("w0".."wN" by caplive
// convention) for aggregation keys and trace provenance.
func (co *Coordinator) workerID(w int) string {
	if w >= 0 && w < len(co.spec.Workers) {
		return co.spec.Workers[w].ID
	}
	return fmt.Sprintf("w%d", w)
}

// trace emits one coordinator-originated event into the cluster timeline.
func (co *Coordinator) trace(ev telemetry.Event) {
	if co.opts.Telemetry == nil {
		return
	}
	ev.Src = "coord"
	co.opts.Telemetry.Tracer().Emit(ev)
}

// WaitJoined accepts worker connections until the cluster is complete.
// Workers are assigned indices in join order.
func (co *Coordinator) WaitJoined(ctx context.Context) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			co.ln.Close()
		case <-done:
		}
	}()
	for len(co.conns) < co.n {
		c, err := co.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		f, err := engine.ReadFrame(c)
		if err != nil || f.Type != engine.FrameHello {
			c.Close()
			continue
		}
		var join wireJoin
		if err := engine.DecodePayload(f.Payload, &join); err != nil || join.Proto != distProtoVersion {
			c.Close()
			continue
		}
		w := len(co.conns)
		cc := &coordConn{w: &connWriter{c: c}, c: c, addr: c.RemoteAddr().String()}
		cc.lastSeen.Store(co.clk().UnixNano())
		cc.alive.Store(true)
		if err := cc.w.send(engine.FrameWelcome, wireWelcome{Worker: w}); err != nil {
			c.Close()
			continue
		}
		co.connMu.Lock()
		co.conns = append(co.conns, cc)
		co.connMu.Unlock()
		go co.readLoop(w, cc)
		co.logf("worker %d joined from %s", w, c.RemoteAddr())
	}
	return nil
}

// readLoop forwards one worker's frames to the supervision loop. The
// observability plane is intercepted here, off the supervision path:
// heartbeat stat payloads and trace batches merge into the coordinator hub
// as they arrive, so /metrics and the cluster timeline are live mid-attempt
// without the supervision loop in the way.
func (co *Coordinator) readLoop(w int, cc *coordConn) {
	worker := co.workerID(w)
	for {
		f, err := engine.ReadFrame(cc.c)
		if err != nil {
			co.events <- coordEvent{worker: w, err: err}
			return
		}
		cc.lastSeen.Store(co.clk().UnixNano())
		switch f.Type {
		case engine.FrameHeartbeat:
			if co.agg.enabled() && len(f.Payload) > 0 {
				var hb wireHeartbeat
				// Undecodable stats degrade the frame to pure liveness.
				if err := engine.DecodePayload(f.Payload, &hb); err == nil {
					co.agg.applyStats(worker, hb.Stats)
				}
			}
		case engine.FrameTrace:
			var wt wireTrace
			if err := engine.DecodePayload(f.Payload, &wt); err == nil {
				co.agg.applyTrace(worker, &wt)
			}
			continue // trace batches never reach the supervision loop
		}
		co.events <- coordEvent{worker: w, frame: f}
	}
}

// Shutdown releases every worker's join loop and closes the control plane.
func (co *Coordinator) Shutdown() {
	for _, cc := range co.conns {
		cc.w.send(engine.FrameShutdown, nil)
		cc.c.Close()
	}
	co.ln.Close()
}

// nextEvent waits for a worker event, a heartbeat-timeout death, or ctx.
func (co *Coordinator) nextEvent(ctx context.Context, alive map[int]bool) (coordEvent, error) {
	tick := time.NewTicker(co.opts.HeartbeatTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case ev := <-co.events:
			return ev, nil
		case <-tick.C:
			if w, stale := co.staleWorker(alive); stale {
				return coordEvent{worker: w, err: fmt.Errorf("heartbeat timeout (%v)", co.opts.HeartbeatTimeout)}, nil
			}
		case <-ctx.Done():
			return coordEvent{}, ctx.Err()
		}
	}
}

// staleWorker reports a live worker whose last frame is older than the
// heartbeat timeout as judged by the injected clock — the liveness
// decision, factored out of nextEvent so clock-driven tests can exercise
// it without real tickers.
func (co *Coordinator) staleWorker(alive map[int]bool) (int, bool) {
	cut := co.clk().Add(-co.opts.HeartbeatTimeout).UnixNano()
	for w := range alive {
		if co.conns[w].lastSeen.Load() < cut {
			return w, true
		}
	}
	return -1, false
}

// Run drives the job to completion across the joined workers, restarting it
// after worker deaths (when Replan is set), data-plane failures and live
// rescales, and assembles the distributed JobResult from the final
// attempt's reports.
func (co *Coordinator) Run(ctx context.Context) (*engine.JobResult, error) {
	if len(co.conns) < co.n {
		return nil, fmt.Errorf("controller: Run before WaitJoined completed (%d of %d workers)", len(co.conns), co.n)
	}
	start := co.clk()
	alive := make(map[int]bool, co.n)
	for w := 0; w < co.n; w++ {
		alive[w] = true
	}
	for attempt := 1; ; attempt++ {
		reports, why, err := co.runAttempt(ctx, alive, attempt)
		if err != nil {
			return nil, err
		}
		if why == nil {
			all := make([]*engine.WorkerReport, 0, len(reports))
			for _, r := range reports {
				all = append(all, r)
			}
			res := engine.AssembleDistResult(all, engine.DistAgg{Elapsed: co.clk.Since(start)})
			res.Faults = co.faults
			co.rc.Finish(res)
			co.trace(telemetry.Event{Kind: telemetry.EventJobComplete, Attempt: attempt,
				Attrs: map[string]any{"recoveries": res.Recoveries, "snapshots": res.SnapshotsTaken}})
			return res, nil
		}
		if err := co.restart(ctx, start, alive, attempt, why); err != nil {
			return nil, err
		}
	}
}

// restartCause is what ended an attempt early: a worker declared dead, a
// data-plane failure between two live workers, or a due rescale.
type restartCause struct {
	dead int   // worker declared dead, or -1
	err  error // why it was declared dead
	// reporter could not reach accused although both are control-plane live.
	reporter, accused int
	// rescale is the rescale due once epoch completed.
	rescale *engine.RescalePlan
	epoch   int64
}

// runAttempt deploys and supervises one attempt. It returns the final
// reports when every live worker finished, or the cause that ended the
// attempt early.
func (co *Coordinator) runAttempt(ctx context.Context, alive map[int]bool, attempt int) (map[int]*engine.WorkerReport, *restartCause, error) {
	co.curAttempt.Store(int64(attempt))
	// The plan converts to wire assignments here, at the wire edge only.
	assign, err := AssignmentsOf(co.rc.Phys(), co.rc.Plan())
	if err != nil {
		return nil, nil, err
	}
	restore, restoreSnaps := co.rc.RestoreSnapshots()

	// Phase 1: deploy, gather every live worker's data address.
	for w := range alive {
		d := co.spec
		d.Assign = assign
		d.Attempt = attempt
		d.Local = w
		d.RestoreEpoch = restore
		for _, s := range restoreSnaps {
			if sw, _ := co.rc.Plan().Worker(dataflow.TaskID{Op: dataflow.OperatorID(s.Task.Op), Index: s.Task.Index}); sw == w {
				d.Snapshots = append(d.Snapshots, s)
			}
		}
		if err := co.conns[w].w.send(engine.FrameDeploy, d); err != nil {
			if errors.Is(err, errEncodePayload) {
				// Local encode failure (e.g. the restore snapshot set
				// outgrew MaxFramePayload): the worker is healthy, and
				// the oversized data would survive any redeploy. Fail
				// the run with the real cause.
				return nil, nil, fmt.Errorf("controller: deploy for worker %d: %w", w, err)
			}
			return nil, &restartCause{dead: w, err: err}, nil
		}
	}
	peers := make(map[int]string, len(alive))
	for len(peers) < len(alive) {
		ev, err := co.nextEvent(ctx, alive)
		if err != nil {
			return nil, nil, err
		}
		if !alive[ev.worker] {
			continue
		}
		if ev.err != nil {
			return nil, &restartCause{dead: ev.worker, err: ev.err}, nil
		}
		switch ev.frame.Type {
		case engine.FrameReady:
			var r wireReady
			if err := engine.DecodePayload(ev.frame.Payload, &r); err != nil {
				return nil, nil, fmt.Errorf("controller: bad READY from worker %d: %w", ev.worker, err)
			}
			if r.Attempt == attempt {
				peers[ev.worker] = r.Addr
			}
		case engine.FrameHeartbeat:
		default:
			// Stale events from the aborted attempt (snapshots, late
			// DONE/STOPPED reports) are dropped.
		}
	}

	// Phase 2: start. Downtime ends when the restarted attempt begins.
	for _, ev := range co.rc.AttemptStarted() {
		ev.Attempt = attempt
		co.trace(ev)
	}
	for w := range alive {
		if err := co.conns[w].w.send(engine.FrameStart, wireStart{Attempt: attempt, Peers: peers}); err != nil {
			if errors.Is(err, errEncodePayload) {
				return nil, nil, fmt.Errorf("controller: start for worker %d: %w", w, err)
			}
			return nil, &restartCause{dead: w, err: err}, nil
		}
	}

	// Phase 3: supervise until every live worker reports DONE.
	reports := make(map[int]*engine.WorkerReport, len(alive))
	for len(reports) < len(alive) {
		ev, err := co.nextEvent(ctx, alive)
		if err != nil {
			return nil, nil, err
		}
		if !alive[ev.worker] {
			continue
		}
		if ev.err != nil {
			// A connection error after DONE is an exiting worker, not a
			// failure of the attempt.
			if reports[ev.worker] != nil {
				continue
			}
			return nil, &restartCause{dead: ev.worker, err: ev.err}, nil
		}
		switch ev.frame.Type {
		case engine.FrameSnapshot:
			var s wireSnap
			if err := engine.DecodePayload(ev.frame.Payload, &s); err == nil && s.Attempt == attempt {
				if done := co.rc.RecordSnapshot(s.Snap); done > 0 {
					co.logf("checkpoint: epoch %d complete (%d snapshots)", done, co.rc.SnapshotsTaken())
					co.trace(telemetry.Event{Kind: telemetry.EventCheckpointComplete, Epoch: done, Attempt: attempt,
						Attrs: map[string]any{"snapshots": co.rc.SnapshotsTaken()}})
					if p := co.rc.Due(done); p != nil {
						return nil, &restartCause{dead: -1, rescale: p, epoch: done}, nil
					}
				}
			}
		case engine.FrameEpochStart:
			var e wireEpoch
			if err := engine.DecodePayload(ev.frame.Payload, &e); err == nil && e.Attempt == attempt {
				co.conns[ev.worker].lastEpoch.Store(e.Epoch)
				co.logf("epoch %d started", e.Epoch)
				co.trace(telemetry.Event{Kind: telemetry.EventCheckpointStart, Epoch: e.Epoch, Attempt: attempt})
			}
		case engine.FramePeerDown:
			var p wirePeer
			if err := engine.DecodePayload(ev.frame.Payload, &p); err == nil && p.Attempt == attempt {
				if !alive[p.Peer] {
					// Already known dead: recovery via its control-plane
					// liveness is in motion, nothing new to act on.
					co.logf("worker %d reports peer %d unreachable (already dead)", ev.worker, p.Peer)
					continue
				}
				// The accused peer is still control-plane live: the failure
				// is data-plane-only (TCP reset between live workers, a
				// severed shared connection). Heartbeats will never detect
				// it, so act on the report: restart the attempt, keeping
				// every worker — until the restart budget is spent, when the
				// accused peer is treated as dead.
				if co.dpRestarts >= maxDataPlaneRestarts {
					return nil, &restartCause{dead: p.Peer, err: fmt.Errorf("persistent data-plane failure: worker %d reports it unreachable after %d restarts", ev.worker, co.dpRestarts)}, nil
				}
				return nil, &restartCause{dead: -1, reporter: ev.worker, accused: p.Peer}, nil
			}
		case engine.FrameDone:
			var r wireReport
			if err := engine.DecodePayload(ev.frame.Payload, &r); err != nil || r.Report == nil {
				return nil, nil, fmt.Errorf("controller: bad DONE from worker %d: %v", ev.worker, err)
			}
			if r.Report.Attempt == attempt {
				reports[ev.worker] = r.Report
			}
		case engine.FrameHeartbeat, engine.FrameStopped:
		}
	}
	return reports, nil, nil
}

// maxDataPlaneRestarts bounds how many data-plane-only restarts a run may
// take before a PEERDOWN report escalates to declaring the accused peer
// dead — without a bound, a persistently broken link between two
// control-plane-live workers would restart the job forever.
const maxDataPlaneRestarts = 3

// restart is the coordinator's one restart path. It acts on the detector's
// verdict (a dead worker is dropped and recorded as a fault), aborts the
// live workers, collects their progress and hands the restart to the
// reconfiguration core: the drained rescale, placed by the core's default
// packing, or else a fault restart, re-placed by Replan if workers died. A
// death during the abort makes any restart a fault restart; a drained
// rescale then stays pending.
func (co *Coordinator) restart(ctx context.Context, start time.Time, alive map[int]bool, attempt int, why *restartCause) error {
	at := co.clk()
	var lost []int
	switch {
	case why.dead >= 0:
		co.logf("worker %d dead (attempt %d): %v", why.dead, attempt, why.err)
		co.trace(telemetry.Event{Kind: telemetry.EventRecoveryStart, Worker: co.workerID(why.dead), Attempt: attempt,
			Attrs: map[string]any{"cause": why.err.Error()}})
		co.markDead(start, alive, why.dead)
		lost = append(lost, why.dead)
	case why.rescale != nil:
		oldP := co.rc.Graph().Operator(why.rescale.Op).Parallelism
		co.logf("rescale: draining %q %d→%d (attempt %d)", why.rescale.Op, oldP, why.rescale.Parallelism, attempt)
	default:
		co.dpRestarts++
		co.logf("worker %d cannot reach live peer %d (attempt %d): restarting all workers (data-plane restart %d/%d)",
			why.reporter, why.accused, attempt, co.dpRestarts, maxDataPlaneRestarts)
		co.trace(telemetry.Event{Kind: telemetry.EventPeerDown, Worker: co.workerID(why.accused), Attempt: attempt,
			Attrs: map[string]any{"reporter": why.reporter, "accused": why.accused, "restart": co.dpRestarts}})
	}

	stopped, died, err := co.abortAndCollect(ctx, start, alive, attempt)
	if err != nil {
		return err
	}
	if len(alive) == 0 {
		return fmt.Errorf("controller: all workers dead while restarting attempt %d", attempt)
	}
	progress := make(map[dataflow.TaskID]int64)
	for _, rep := range stopped {
		for _, ts := range rep.Tasks {
			progress[dataflow.TaskID{Op: dataflow.OperatorID(ts.Task.Op), Index: ts.Task.Index}] = ts.RecordsIn
		}
	}
	if why.rescale != nil && len(died) == 0 {
		// The drain completed: resume on the rescaled topology, placed by
		// the core's default packing. The deploy spec's overrides tell
		// workers to build the rescaled graph.
		dec, err := co.rc.RescaleDrained(why.epoch, at, progress, attempt)
		if err != nil {
			return err
		}
		ev := dec.Rescale
		plan, err := co.rc.DefaultRescalePlan()
		if err == nil {
			err = co.rc.SetPlan(plan)
		}
		if err != nil {
			return fmt.Errorf("controller: re-placement for rescale of %q: %w", ev.Op, err)
		}
		co.spec.Rescaled = setOverride(co.spec.Rescaled, string(ev.Op), ev.NewParallelism)
		co.logf("rescale: %q %d→%d applied at epoch %d (%d state bytes moved); redeploying",
			ev.Op, ev.OldParallelism, ev.NewParallelism, ev.Epoch, ev.MovedBytes)
		for _, t := range dec.Trace {
			t.Attempt = attempt
			co.trace(t)
		}
		return nil
	}

	// A fault restart. Deaths during a rescale drain or a data-plane restart
	// get the recovery.start the control-plane path would have emitted, so
	// the timeline records them whichever detector fired first.
	if why.dead < 0 {
		cause := "worker died during data-plane restart"
		if why.rescale != nil {
			cause = "worker died during rescale drain"
			at = co.clk()
		}
		for _, d := range died {
			co.trace(telemetry.Event{Kind: telemetry.EventRecoveryStart, Worker: co.workerID(d), Attempt: attempt,
				Attrs: map[string]any{"cause": cause}})
		}
	}
	lost = append(lost, died...)
	if len(lost) > 0 && co.opts.Replan == nil {
		return fmt.Errorf("controller: worker %d died and no Replan is configured", lost[0])
	}
	dec := co.rc.Fault(engine.Fault{At: at, Dead: lost, Progress: progress})
	if dec.Replace {
		next, err := co.opts.Replan(deadWorkers(co.n, alive), attempt+1)
		if err == nil {
			err = co.adopt(next)
		}
		if err != nil {
			return fmt.Errorf("controller: re-placement after worker %d died: %w", lost[0], err)
		}
	}
	attrs := map[string]any{"survivors": len(alive)}
	if why.dead < 0 && why.rescale == nil {
		attrs["data_plane"] = true
	}
	co.logf("recovery: restarting attempt %d from epoch %d on %d survivors", attempt+1, dec.Epoch, len(alive))
	co.trace(telemetry.Event{Kind: telemetry.EventRecoveryRestart, Epoch: dec.Epoch, Attempt: attempt + 1, Attrs: attrs})
	return nil
}

// setOverride records op's new parallelism in the deploy spec's override
// list, replacing an earlier override of the same operator.
func setOverride(over []OpParallelism, op string, parallelism int) []OpParallelism {
	for i := range over {
		if over[i].Op == op {
			over[i].Parallelism = parallelism
			return over
		}
	}
	return append(over, OpParallelism{Op: op, Parallelism: parallelism})
}

// markDead drops worker w from the live set, closes its connection and
// records its loss as a fault.
func (co *Coordinator) markDead(start time.Time, alive map[int]bool, w int) {
	delete(alive, w)
	co.conns[w].alive.Store(false)
	co.conns[w].c.Close()
	co.faults = append(co.faults, engine.FaultRecord{
		Kind:      engine.FaultKillWorker,
		Worker:    w,
		Recovered: co.opts.Replan != nil && len(alive) > 0,
		At:        co.clk.Since(start),
	})
}

// abortAndCollect aborts every live worker and collects their STOPPED
// progress reports for the rollback accounting (checkpoint snapshots that
// raced the abort are still recorded). Workers dying while stopping are
// marked dead and returned; the caller decides what their loss means.
func (co *Coordinator) abortAndCollect(ctx context.Context, start time.Time, alive map[int]bool, attempt int) (map[int]*engine.WorkerReport, []int, error) {
	for w := range alive {
		co.conns[w].w.send(engine.FrameAbort, wireEpoch{Attempt: attempt})
	}
	stopped := make(map[int]*engine.WorkerReport, len(alive))
	deadline := time.After(co.opts.StopTimeout)
	var died []int
collect:
	for len(stopped) < len(alive) {
		select {
		case ev := <-co.events:
			if !alive[ev.worker] {
				continue
			}
			if ev.err != nil {
				co.logf("worker %d also died during recovery", ev.worker)
				co.markDead(start, alive, ev.worker)
				died = append(died, ev.worker)
				continue
			}
			switch ev.frame.Type {
			case engine.FrameStopped, engine.FrameDone:
				var r wireReport
				if err := engine.DecodePayload(ev.frame.Payload, &r); err == nil && r.Report != nil && r.Report.Attempt == attempt {
					stopped[ev.worker] = r.Report
				}
			case engine.FrameSnapshot:
				// Snapshots raced the abort; they are still valid state.
				var s wireSnap
				if err := engine.DecodePayload(ev.frame.Payload, &s); err == nil && s.Attempt == attempt {
					co.rc.RecordSnapshot(s.Snap)
				}
			}
		case <-deadline:
			break collect
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return stopped, died, nil
}

// deadWorkers lists the workers of a co.n-process cluster not in alive.
func deadWorkers(n int, alive map[int]bool) []int {
	dead := make([]int, 0, n-len(alive))
	for w := 0; w < n; w++ {
		if !alive[w] {
			dead = append(dead, w)
		}
	}
	return dead
}

// adopt installs a Replan result for the next attempt through the core's
// plan validator.
func (co *Coordinator) adopt(next []TaskAssignment) error {
	plan, err := planOf(next)
	if err != nil {
		return err
	}
	return co.rc.SetPlan(plan)
}

// planOf converts wire assignments to a plan, rejecting a task assigned
// twice; the reconfiguration core validates the rest.
func planOf(assign []TaskAssignment) (*dataflow.Plan, error) {
	p := dataflow.NewPlanSized(len(assign))
	for _, a := range assign {
		t := dataflow.TaskID{Op: dataflow.OperatorID(a.Task.Op), Index: a.Task.Index}
		if _, dup := p.Worker(t); dup {
			return nil, fmt.Errorf("controller: task %v assigned twice", a.Task)
		}
		p.Assign(t, a.Worker)
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// worker

// JoinOptions tunes the worker-side loop.
type JoinOptions struct {
	// HeartbeatEvery is the liveness reporting interval (default 500ms).
	HeartbeatEvery time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Telemetry, when set, is the worker's hub (pass the same hub to the
	// JobBuilder — NexmarkBuilderWith does). Each heartbeat then piggybacks
	// a metric delta and ships the tracer's new events to the coordinator;
	// nil keeps heartbeats payload-free.
	Telemetry *telemetry.Telemetry
}

// coordClient forwards a worker attempt's checkpoint traffic to the
// coordinator. Send errors are swallowed: a dead coordinator surfaces as a
// read error on the control connection, which ends the join loop.
type coordClient struct {
	w       *connWriter
	attempt int
}

func (c *coordClient) EpochStarted(epoch int64) {
	c.w.send(engine.FrameEpochStart, wireEpoch{Attempt: c.attempt, Epoch: epoch})
}

func (c *coordClient) TaskSnapshot(s engine.WireSnapshot) {
	c.w.send(engine.FrameSnapshot, wireSnap{Attempt: c.attempt, Snap: s})
}

// JoinCluster runs one worker process's control loop: join the coordinator
// at addr, then serve deploy/start/abort cycles until a SHUTDOWN frame (nil
// return), the coordinator vanishes, or ctx is canceled.
func JoinCluster(ctx context.Context, addr string, build JobBuilder, opts JoinOptions) error {
	if build == nil {
		return fmt.Errorf("controller: JoinCluster requires a JobBuilder")
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 500 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := net.Dialer{Timeout: 10 * time.Second}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	w := &connWriter{c: c}
	if err := w.send(engine.FrameHello, wireJoin{Proto: distProtoVersion}); err != nil {
		return err
	}
	f, err := engine.ReadFrame(c)
	if err != nil {
		return err
	}
	if f.Type != engine.FrameWelcome {
		return fmt.Errorf("controller: expected WELCOME, got frame type %d", f.Type)
	}
	var welcome wireWelcome
	if err := engine.DecodePayload(f.Payload, &welcome); err != nil {
		return err
	}
	me := welcome.Worker
	logf("joined as worker %d", me)

	// The reader goroutine owns the connection; ctx cancellation closes it
	// to unblock the read.
	frames := make(chan coordEvent, 16)
	go func() {
		for {
			f, err := engine.ReadFrame(c)
			if err != nil {
				frames <- coordEvent{err: err}
				return
			}
			frames <- coordEvent{frame: f}
		}
	}()
	stopHB := make(chan struct{})
	defer close(stopHB)
	go func() {
		// Each tick ships the tracer's new events (stamped with this
		// worker's identity) and a heartbeat carrying the metric delta
		// since the previous tick. Both are best-effort observability:
		// the trace feed drops rather than blocks, and an encode failure
		// must not kill liveness, so only the heartbeat send is fatal.
		sampler := newHBSampler(opts.Telemetry)
		feed := opts.Telemetry.Tracer().Subscribe(0)
		srcID := fmt.Sprintf("w%d", me)
		t := time.NewTicker(opts.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if evs := feed.Drain(256); len(evs) > 0 {
					for i := range evs {
						evs[i].Src = srcID
						evs[i].WSeq = evs[i].Seq
					}
					w.send(engine.FrameTrace, wireTrace{Events: evs, Dropped: feed.Dropped()})
				}
				if w.send(engine.FrameHeartbeat, wireHeartbeat{Stats: sampler.sample()}) != nil {
					return
				}
			case <-stopHB:
				return
			}
		}
	}()
	go func() {
		select {
		case <-ctx.Done():
			c.Close()
		case <-stopHB:
		}
	}()

	var run *engine.WorkerRun
	var attempt int
	var started bool
	runDone := make(chan *engine.WorkerRun, 1)
	// A live attempt must not outlive the control loop (the process may be
	// long-lived: tests join many clusters from one process).
	defer func() {
		if run == nil {
			return
		}
		if !started {
			run.Discard()
			return
		}
		run.Abort()
		<-run.Done()
	}()
	for {
		select {
		case fe := <-frames:
			if fe.err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("controller: coordinator connection lost: %w", fe.err)
			}
			switch fe.frame.Type {
			case engine.FrameDeploy:
				var spec DeploySpec
				if err := engine.DecodePayload(fe.frame.Payload, &spec); err != nil {
					return fmt.Errorf("controller: bad DEPLOY: %w", err)
				}
				if run != nil && !started {
					run.Discard()
				}
				job, err := build(spec)
				if err != nil {
					return fmt.Errorf("controller: building job for deploy: %w", err)
				}
				attempt = spec.Attempt
				run, err = job.PrepareWorkerAttempt(engine.WorkerNetConfig{
					Local:        spec.Local,
					AttemptNo:    spec.Attempt,
					RestoreEpoch: spec.RestoreEpoch,
					Snapshots:    spec.Snapshots,
					Coord:        &coordClient{w: w, attempt: spec.Attempt},
					OnPeerDown: func(peer int, err error) {
						w.send(engine.FramePeerDown, wirePeer{Attempt: spec.Attempt, Peer: peer})
					},
				})
				if err != nil {
					return fmt.Errorf("controller: preparing attempt %d: %w", spec.Attempt, err)
				}
				started = false
				logf("attempt %d prepared (restore epoch %d), data plane on %s", spec.Attempt, spec.RestoreEpoch, run.DataAddr())
				if err := w.send(engine.FrameReady, wireReady{Attempt: spec.Attempt, Addr: run.DataAddr()}); err != nil {
					return err
				}
			case engine.FrameStart:
				var st wireStart
				if err := engine.DecodePayload(fe.frame.Payload, &st); err != nil {
					return fmt.Errorf("controller: bad START: %w", err)
				}
				if run == nil || st.Attempt != attempt {
					continue
				}
				run.Start(ctx, st.Peers)
				started = true
				go func(r *engine.WorkerRun) {
					<-r.Done()
					runDone <- r
				}(run)
				logf("attempt %d started", attempt)
			case engine.FrameAbort:
				if run == nil {
					continue
				}
				var rep *engine.WorkerReport
				if !started {
					rep = run.Discard()
				} else {
					run.Abort()
					<-run.Done()
					var err error
					rep, err = run.Report()
					if err != nil {
						return fmt.Errorf("controller: aborted attempt %d: %w", attempt, err)
					}
				}
				run = nil
				logf("attempt %d aborted", attempt)
				if err := w.send(engine.FrameStopped, wireReport{Report: rep}); err != nil {
					return err
				}
			case engine.FrameShutdown:
				logf("shutdown")
				return nil
			}
		case r := <-runDone:
			if r != run {
				continue // aborted attempt already reported via STOPPED
			}
			rep, err := r.Report()
			if err != nil {
				return fmt.Errorf("controller: attempt %d: %w", attempt, err)
			}
			run = nil
			logf("attempt %d done: %d records in across %d tasks", rep.Attempt, sumRecordsIn(rep), len(rep.Tasks))
			typ := byte(engine.FrameDone)
			if !rep.Completed {
				typ = engine.FrameStopped
			}
			if err := w.send(typ, wireReport{Report: rep}); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func sumRecordsIn(rep *engine.WorkerReport) int64 {
	var n int64
	for _, t := range rep.Tasks {
		n += t.RecordsIn
	}
	return n
}
