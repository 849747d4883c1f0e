package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"capsys/internal/clock"
	"capsys/internal/dataflow"
	"capsys/internal/statebackend"
	"capsys/internal/telemetry"
)

// The reconfiguration core. Every reconfiguration of a running job — a
// restart after a fault or worker loss, a data-plane restart, a live
// rescale — is "restore from checkpoint epoch E with a new plan". Reconfig
// decides E and the graph and plan the next attempt runs, and accounts for
// what each restart cost. It is a state machine with an injected clock and
// no goroutines: a runner feeds it events (a fault, a rescale drained at an
// epoch, an attempt started) and carries out the decisions it returns. Two
// runners share it: Job.Run runs attempts in-process, and
// controller.Coordinator deploys them to worker processes. Detecting
// failures, aborting attempts and calling placement hooks stay in the
// runners (DESIGN.md §8).

// ErrInvalidPlan marks a placement the core refuses to deploy.
var ErrInvalidPlan = errors.New("engine: invalid plan")

// ReconfigConfig is the initial state of a reconfiguration core.
type ReconfigConfig struct {
	Graph   *dataflow.LogicalGraph
	Plan    *dataflow.Plan
	Cluster ClusterSpec
	// KeyGroups as in JobOptions: 0 resolves to DefaultKeyGroups, raised
	// to the widest operator.
	KeyGroups int
	// SnapshotInterval > 0 enables rescales.
	SnapshotInterval int64
	// Now measures downtime windows (nil = the system clock).
	Now clock.Clock
}

// Reconfig is the reconfiguration core. Only its runner's goroutine calls
// it, except Schedule and Due, which are safe from any goroutine.
type Reconfig struct {
	spec      ClusterSpec
	keyGroups int
	interval  int64
	clk       clock.Clock
	// ckpt is the durable checkpoint store: in-process attempts record into
	// it directly, the coordinator feeds it the snapshots workers ship.
	ckpt *checkpointCoordinator

	mu sync.Mutex
	// graph is written only by the runner, under mu; Schedule reads it
	// under mu from any goroutine.
	graph   *dataflow.LogicalGraph
	pending []RescalePlan // guarded by mu

	phys *dataflow.PhysicalGraph
	plan *dataflow.Plan
	dead map[int]bool

	// restored is the next attempt's restore epoch and base each task's
	// records in there, kept here so the store pruning that epoch cannot
	// skew the rollback accounting.
	restored int64
	base     map[dataflow.TaskID]int64

	recoveries      int
	downtime        time.Duration
	reprocessed     int64
	rescales        int
	rescaleDowntime time.Duration
	rescaleMoved    int64
	// failedAt and rescaledAt open the downtime windows the next
	// AttemptStarted closes; lastRescale is the rescale whose window is open.
	failedAt    time.Time
	rescaledAt  time.Time
	lastRescale *RescaleEvent
}

// NewReconfig builds the core for a job about to start: it resolves the
// key-group count and validates the initial plan.
func NewReconfig(cfg ReconfigConfig) (*Reconfig, error) {
	if len(cfg.Cluster.Workers) == 0 {
		return nil, fmt.Errorf("engine: no workers")
	}
	kg, err := resolveKeyGroups(cfg.Graph, cfg.KeyGroups)
	if err != nil {
		return nil, err
	}
	phys, err := dataflow.Expand(cfg.Graph)
	if err != nil {
		return nil, err
	}
	c := &Reconfig{
		spec:      cfg.Cluster,
		keyGroups: kg,
		interval:  cfg.SnapshotInterval,
		clk:       cfg.Now.OrSystem(),
		ckpt:      newCheckpointCoordinator(phys.NumTasks()),
		graph:     cfg.Graph,
		phys:      phys,
		dead:      make(map[int]bool),
	}
	return c, c.SetPlan(cfg.Plan)
}

// resolveKeyGroups applies the KeyGroups default: zero adapts to the graph,
// an explicit count must cover every operator's parallelism.
func resolveKeyGroups(g *dataflow.LogicalGraph, kg int) (int, error) {
	if kg < 0 {
		return 0, fmt.Errorf("engine: KeyGroups must be non-negative")
	}
	explicit := kg > 0
	if !explicit {
		kg = statebackend.DefaultKeyGroups
	}
	for _, op := range g.Operators() {
		if op.Parallelism > kg && explicit {
			return 0, fmt.Errorf("engine: operator %q parallelism %d exceeds %d key-groups", op.ID, op.Parallelism, kg)
		}
		kg = max(kg, op.Parallelism)
	}
	return kg, nil
}

// KeyGroups is the job's resolved key-group count.
func (c *Reconfig) KeyGroups() int { return c.keyGroups }

// Graph, Phys and Plan are what the next attempt runs.
func (c *Reconfig) Graph() *dataflow.LogicalGraph { return c.graph }
func (c *Reconfig) Phys() *dataflow.PhysicalGraph { return c.phys }
func (c *Reconfig) Plan() *dataflow.Plan          { return c.plan }

// DeadWorkers lists every worker lost so far, ascending.
func (c *Reconfig) DeadWorkers() []int {
	out := make([]int, 0, len(c.dead))
	for w := range c.dead {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// SetPlan installs plan for the next attempt after checking that it places
// exactly the graph's tasks, on live workers, within their slots. A
// rejected plan wraps ErrInvalidPlan.
func (c *Reconfig) SetPlan(plan *dataflow.Plan) error {
	if plan == nil {
		return fmt.Errorf("%w: nil plan", ErrInvalidPlan)
	}
	slotUse := make([]int, len(c.spec.Workers))
	for _, t := range c.phys.Tasks() {
		w, ok := plan.Worker(t)
		switch {
		case !ok:
			return fmt.Errorf("%w: task %v unassigned", ErrInvalidPlan, t)
		case w < 0 || w >= len(slotUse):
			return fmt.Errorf("%w: task %v on invalid worker %d", ErrInvalidPlan, t, w)
		case c.dead[w]:
			return fmt.Errorf("%w: task %v on dead worker %d", ErrInvalidPlan, t, w)
		}
		slotUse[w]++
	}
	if plan.Len() != c.phys.NumTasks() {
		return fmt.Errorf("%w: plan places %d tasks, the graph has %d", ErrInvalidPlan, plan.Len(), c.phys.NumTasks())
	}
	for w, used := range slotUse {
		if used > c.spec.Workers[w].Slots {
			return fmt.Errorf("%w: worker %s over capacity (%d > %d)", ErrInvalidPlan, c.spec.Workers[w].ID, used, c.spec.Workers[w].Slots)
		}
	}
	c.plan = plan
	return nil
}

// Schedule queues a live parallelism change, rejecting one that can never
// apply: snapshots disabled, an unknown or source operator (the source
// count fixes the input partitioning), a parallelism outside [1,
// KeyGroups], a negative epoch, or a Forward-edge peer pinning the
// operator's parallelism.
func (c *Reconfig) Schedule(p RescalePlan) error {
	if c.interval <= 0 {
		return fmt.Errorf("engine: rescale needs checkpoints; set SnapshotInterval > 0")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.graph.Operator(p.Op) == nil:
		return fmt.Errorf("engine: rescale of unknown operator %q", p.Op)
	case len(c.graph.Upstream(p.Op)) == 0:
		return fmt.Errorf("engine: cannot rescale source %q (source count fixes the input partitioning)", p.Op)
	case p.Parallelism <= 0:
		return fmt.Errorf("engine: rescale of %q to non-positive parallelism %d", p.Op, p.Parallelism)
	case p.Parallelism > c.keyGroups:
		return fmt.Errorf("engine: rescale of %q to %d exceeds %d key-groups", p.Op, p.Parallelism, c.keyGroups)
	case p.AtEpoch < 0:
		return fmt.Errorf("engine: rescale of %q at negative epoch %d", p.Op, p.AtEpoch)
	}
	if _, err := c.graph.Rescale(map[dataflow.OperatorID]int{p.Op: p.Parallelism}); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	c.pending = append(c.pending, p)
	return nil
}

// Due returns the first pending rescale due at the completed epoch, or nil.
// It stays pending until RescaleDrained applies it, so a fault racing the
// drain re-triggers it at the next complete epoch.
func (c *Reconfig) Due(epoch int64) *RescalePlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pending {
		if epoch >= p.AtEpoch {
			return &p
		}
	}
	return nil
}

// Fault is a failure that ended an attempt early.
type Fault struct {
	// At opens the downtime window.
	At time.Time
	// Dead lists the workers lost with this fault.
	Dead []int
	// Progress is the aborted attempt's records in per task, for the tasks
	// that reported (a dead worker's cannot).
	Progress map[dataflow.TaskID]int64
}

// Decision is what the runner does before the next attempt.
type Decision struct {
	// Epoch is the checkpoint epoch the next attempt restores from.
	Epoch int64
	// Replace means workers died: re-place through the placement hook.
	Replace bool
	// Rescale is the applied rescale: place the rescaled graph through the
	// runner's hook or DefaultRescalePlan.
	Rescale *RescaleEvent
	// Trace lists events to emit once the new plan is installed.
	Trace []telemetry.Event
}

// Fault restarts the job from the newest complete epoch, counting a
// recovery and the work the restore rolls back.
func (c *Reconfig) Fault(f Fault) Decision {
	c.recoveries++
	for _, w := range f.Dead {
		c.dead[w] = true
	}
	epoch := c.ckpt.lastCompleteEpoch()
	c.reprocessed += c.rollback(f.Progress, epoch)
	c.restoreFrom(epoch)
	c.failedAt = f.At
	return Decision{Epoch: epoch, Replace: len(f.Dead) > 0}
}

// RescaleDrained applies the rescale attempt drained for at epoch (at is
// when). It resumes from the newest complete epoch — a later one may have
// completed, pruning epoch, before the abort landed — with the operator's
// snapshots split along key-group boundaries and the rescaled graph.
func (c *Reconfig) RescaleDrained(epoch int64, at time.Time, progress map[dataflow.TaskID]int64, attempt int) (Decision, error) {
	epoch = max(epoch, c.ckpt.lastCompleteEpoch())
	p := c.Due(epoch)
	if p == nil {
		return Decision{}, fmt.Errorf("engine: rescale drained at epoch %d but no plan is pending", epoch)
	}
	rolledBack := c.rollback(progress, epoch)
	oldP, newP := c.graph.Operator(p.Op).Parallelism, p.Parallelism
	oldSnaps := make([]*taskSnapshot, oldP)
	for i := range oldSnaps {
		oldSnaps[i] = c.ckpt.snapshotFor(dataflow.TaskID{Op: p.Op, Index: i}, epoch)
	}
	newSnaps, moved, err := repartitionTaskSnapshots(oldSnaps, oldP, newP, c.keyGroups)
	if err != nil {
		return Decision{}, fmt.Errorf("engine: rescale %q %d→%d: %w", p.Op, oldP, newP, err)
	}
	g, err := c.graph.Rescale(map[dataflow.OperatorID]int{p.Op: newP})
	if err != nil {
		return Decision{}, fmt.Errorf("engine: rescale %q: %w", p.Op, err)
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		return Decision{}, fmt.Errorf("engine: rescale %q: %w", p.Op, err)
	}
	c.ckpt.applyRescale(epoch, p.Op, newSnaps, phys.NumTasks())
	c.mu.Lock()
	c.graph = g
	for i := range c.pending {
		if c.pending[i] == *p {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	c.phys = phys

	ev := &RescaleEvent{Op: p.Op, OldParallelism: oldP, NewParallelism: newP, Epoch: epoch,
		MovedBytes: moved, DeadWorkers: c.DeadWorkers(), Attempt: attempt}
	c.reprocessed += rolledBack
	c.rescales++
	c.rescaleMoved += moved
	c.restoreFrom(epoch)
	c.rescaledAt, c.lastRescale = at, ev
	return Decision{Epoch: epoch, Rescale: ev, Trace: []telemetry.Event{{
		Kind:  telemetry.EventRescaleStart,
		Op:    string(ev.Op),
		Epoch: ev.Epoch,
		Attrs: map[string]any{"from": oldP, "to": newP, "state_moved_bytes": moved},
	}}}, nil
}

// DefaultRescalePlan places a rescaled graph without a search: surviving
// tasks stay where the current plan has them, and new tasks pack onto the
// lowest-index live workers with free slots.
func (c *Reconfig) DefaultRescalePlan() (*dataflow.Plan, error) {
	plan := dataflow.NewPlanSized(c.phys.NumTasks())
	slotUse := make([]int, len(c.spec.Workers))
	var fresh []dataflow.TaskID
	for _, t := range c.phys.Tasks() {
		if w, ok := c.plan.Worker(t); ok && w >= 0 && w < len(slotUse) {
			plan.Assign(t, w)
			slotUse[w]++
		} else {
			fresh = append(fresh, t)
		}
	}
next:
	for _, t := range fresh {
		for w := range c.spec.Workers {
			if !c.dead[w] && slotUse[w] < c.spec.Workers[w].Slots {
				plan.Assign(t, w)
				slotUse[w]++
				continue next
			}
		}
		return nil, fmt.Errorf("no free slot for new task %v (need a re-placement hook or more capacity)", t)
	}
	return plan, nil
}

// AttemptStarted closes the downtime windows a restart opened — the next
// attempt is deployed, restored and about to run — and returns the
// rescale.complete event when a rescale window closed.
func (c *Reconfig) AttemptStarted() []telemetry.Event {
	if !c.failedAt.IsZero() {
		c.downtime += c.clk.Since(c.failedAt)
		c.failedAt = time.Time{}
	}
	if c.rescaledAt.IsZero() {
		return nil
	}
	d := c.clk.Since(c.rescaledAt)
	c.rescaleDowntime += d
	ev := c.lastRescale
	c.rescaledAt, c.lastRescale = time.Time{}, nil
	return []telemetry.Event{{
		Kind:  telemetry.EventRescaleComplete,
		Op:    string(ev.Op),
		Epoch: ev.Epoch,
		Attrs: map[string]any{"from": ev.OldParallelism, "to": ev.NewParallelism, "downtime_ms": d.Seconds() * 1e3},
	}}
}

// rollback counts the records an aborted attempt processed past epoch —
// work the next attempt redoes. A task's baseline is its snapshot at epoch,
// else its records in at the attempt's own restore point.
func (c *Reconfig) rollback(progress map[dataflow.TaskID]int64, epoch int64) int64 {
	var total int64
	for t, in := range progress {
		base := c.base[t]
		if s := c.ckpt.snapshotFor(t, epoch); s != nil {
			base = s.recordsIn
		}
		total += max(in-base, 0)
	}
	return total
}

// restoreFrom makes epoch the next restore point and records its per-task
// baseline while the store is sure to hold it.
func (c *Reconfig) restoreFrom(epoch int64) {
	c.restored = epoch
	c.base = make(map[dataflow.TaskID]int64, c.phys.NumTasks())
	for _, t := range c.phys.Tasks() {
		if s := c.ckpt.snapshotFor(t, epoch); s != nil {
			c.base[t] = s.recordsIn
		}
	}
}

// RestoreSnapshots returns the epoch the next attempt restores from (0 =
// fresh) and every task's snapshot there, for shipping to workers.
func (c *Reconfig) RestoreSnapshots() (int64, []WireSnapshot) {
	var out []WireSnapshot
	for _, t := range c.phys.Tasks() {
		if s := c.ckpt.snapshotFor(t, c.restored); s != nil {
			out = append(out, snapshotToWire(t, s))
		}
	}
	return c.restored, out
}

// RecordSnapshot stores a shipped snapshot and returns the epoch it
// completed, or 0.
func (c *Reconfig) RecordSnapshot(w WireSnapshot) int64 {
	t, snap := wireToSnapshot(w)
	return c.ckpt.record(t, snap)
}

// SnapshotsTaken counts distinct (task, epoch) snapshots recorded.
func (c *Reconfig) SnapshotsTaken() int64 { return c.ckpt.snapshotsTaken() }

// Finish writes the recovery, rescale and checkpoint fields of a finished
// job's result and their job.* metrics. res must already carry Elapsed,
// Failed, Faults and LostRecords.
func (c *Reconfig) Finish(res *JobResult) {
	res.Recoveries = c.recoveries
	res.Downtime = c.downtime
	res.RecordsReprocessed = c.reprocessed
	res.SnapshotsTaken = c.ckpt.snapshotsTaken()
	res.RestoredEpoch = c.restored
	res.Rescales = c.rescales
	res.RescaleDowntime = c.rescaleDowntime
	res.RescaleMovedBytes = c.rescaleMoved
	if res.Failed {
		// Unrecovered faults leave their tasks down until the end of the run.
		first := res.Elapsed
		for _, f := range res.Faults {
			if f.Kind != FaultStallTask && !f.Recovered && f.At < first {
				first = f.At
			}
		}
		res.Downtime += res.Elapsed - first
	}
	m := res.Metrics
	m.Counter("job.recoveries").Inc(int64(res.Recoveries))
	m.Gauge("job.downtime_seconds").Set(res.Downtime.Seconds())
	m.Counter("job.records_reprocessed").Inc(res.RecordsReprocessed)
	m.Counter("job.lost_records").Inc(res.LostRecords)
	m.Counter("job.snapshots").Inc(res.SnapshotsTaken)
	m.Gauge("job.restored_epoch").Set(float64(res.RestoredEpoch))
	// Rescale metrics appear only when a rescale ran, keeping the metric
	// surface of ordinary jobs — goldens included — unchanged.
	if res.Rescales > 0 {
		m.Counter("job.rescales").Inc(int64(res.Rescales))
		m.Gauge("job.rescale_downtime_seconds").Set(res.RescaleDowntime.Seconds())
		m.Counter("job.rescale_moved_bytes").Inc(res.RescaleMovedBytes)
	}
}
