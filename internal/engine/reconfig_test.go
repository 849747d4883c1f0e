package engine

import (
	"errors"
	"sync"
	"testing"
	"time"

	"capsys/internal/clock"
	"capsys/internal/dataflow"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// coreRig is a reconfiguration core for src(2) -> win(2) -> sink(1), placed
// round-robin on three 3-slot workers, with a Step clock that advances 1ms
// per reading. Everything runs on the test goroutine: no attempts, no
// sockets.
type coreRig struct {
	t   *testing.T
	c   *Reconfig
	clk clock.Clock
}

func newCoreRig(t *testing.T) *coreRig {
	t.Helper()
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	clk := clock.Step(time.Unix(1700000000, 0), time.Millisecond)
	c, err := NewReconfig(ReconfigConfig{
		Graph:            g,
		Plan:             roundRobinPlan(t, g, 3),
		Cluster:          bigWorkers(3, 3),
		SnapshotInterval: 100,
		Now:              clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &coreRig{t: t, c: c, clk: clk}
}

// snapIn is the records-in a task reports in its epoch-e snapshot.
func snapIn(task dataflow.TaskID, e int64) int64 { return 100*e + int64(task.Index) }

// snapshot records epoch e for the given tasks (every task when none are
// named) and returns the epoch that completed, if any.
func (r *coreRig) snapshot(e int64, tasks ...dataflow.TaskID) int64 {
	if len(tasks) == 0 {
		tasks = r.c.Phys().Tasks()
	}
	var done int64
	for _, task := range tasks {
		if d := r.c.ckpt.record(task, &taskSnapshot{epoch: e, recordsIn: snapIn(task, e)}); d > 0 {
			done = d
		}
	}
	return done
}

// progress reports every task at n records in past its epoch-e snapshot.
func (r *coreRig) progress(e, n int64) map[dataflow.TaskID]int64 {
	out := make(map[dataflow.TaskID]int64)
	for _, task := range r.c.Phys().Tasks() {
		out[task] = snapIn(task, e) + n
	}
	return out
}

func (r *coreRig) finish() *JobResult {
	res := &JobResult{Elapsed: time.Second, Metrics: metrics.NewRegistry()}
	r.c.Finish(res)
	return res
}

// planOn places every task of the current graph with place.
func (r *coreRig) planOn(place func(i int, task dataflow.TaskID) int) *dataflow.Plan {
	p := dataflow.NewPlan()
	for i, task := range r.c.Phys().Tasks() {
		p.Assign(task, place(i, task))
	}
	return p
}

func TestReconfigCore(t *testing.T) {
	win := func(i int) dataflow.TaskID { return dataflow.TaskID{Op: "win", Index: i} }
	cases := []struct {
		name string
		run  func(r *coreRig)
	}{
		{"fault restores from the last complete epoch", func(r *coreRig) {
			r.snapshot(1)
			if done := r.snapshot(2); done != 2 {
				r.t.Fatalf("epoch 2 completed as %d", done)
			}
			r.snapshot(3, win(0)) // epoch 3 never completes
			dec := r.c.Fault(Fault{At: r.clk(), Progress: r.progress(2, 7)})
			if dec.Epoch != 2 || dec.Replace || dec.Rescale != nil {
				r.t.Fatalf("decision = %+v, want a restore from epoch 2 without re-placement", dec)
			}
			res := r.finish()
			if res.Recoveries != 1 || res.RestoredEpoch != 2 {
				r.t.Errorf("recoveries=%d restored=%d, want 1 and 2", res.Recoveries, res.RestoredEpoch)
			}
			if want := int64(7 * 5); res.RecordsReprocessed != want {
				r.t.Errorf("reprocessed = %d, want %d", res.RecordsReprocessed, want)
			}
		}},
		{"rescale resumes from an epoch completed during the drain", func(r *coreRig) {
			if err := r.c.Schedule(RescalePlan{Op: "win", Parallelism: 3, AtEpoch: 1}); err != nil {
				r.t.Fatal(err)
			}
			if r.c.Due(r.snapshot(1)) == nil {
				r.t.Fatal("rescale not due at epoch 1")
			}
			r.snapshot(2) // completes while the attempt drains
			dec, err := r.c.RescaleDrained(1, r.clk(), r.progress(2, 4), 1)
			if err != nil {
				r.t.Fatal(err)
			}
			ev := dec.Rescale
			if dec.Epoch != 2 || ev == nil || ev.Epoch != 2 || ev.OldParallelism != 2 || ev.NewParallelism != 3 || ev.Attempt != 1 {
				r.t.Fatalf("decision = %+v, event = %+v, want win 2→3 resumed from epoch 2", dec, ev)
			}
			if len(dec.Trace) != 1 || dec.Trace[0].Kind != telemetry.EventRescaleStart {
				r.t.Errorf("trace = %+v, want one rescale.start", dec.Trace)
			}
			if r.c.Due(100) != nil {
				r.t.Error("applied rescale still pending")
			}
			if got := r.c.Graph().Operator("win").Parallelism; got != 3 {
				r.t.Errorf("graph win parallelism = %d, want 3", got)
			}
			epoch, snaps := r.c.RestoreSnapshots()
			if epoch != 2 || len(snaps) != 6 {
				r.t.Errorf("restore set = epoch %d with %d snapshots, want epoch 2 with 6", epoch, len(snaps))
			}
			plan, err := r.c.DefaultRescalePlan()
			if err != nil {
				r.t.Fatal(err)
			}
			if w, ok := plan.Worker(win(2)); !ok || w != 0 {
				r.t.Errorf("new task placed on %d (%v), want the first worker with a free slot", w, ok)
			}
			if err := r.c.SetPlan(plan); err != nil {
				r.t.Fatal(err)
			}
			res := r.finish()
			if res.Rescales != 1 || res.Recoveries != 0 || res.RecordsReprocessed != 4*5 {
				r.t.Errorf("rescales=%d recoveries=%d reprocessed=%d, want 1, 0, 20",
					res.Rescales, res.Recoveries, res.RecordsReprocessed)
			}
		}},
		{"a fault racing a rescale drain wins and the rescale stays pending", func(r *coreRig) {
			if err := r.c.Schedule(RescalePlan{Op: "win", Parallelism: 3}); err != nil {
				r.t.Fatal(err)
			}
			r.snapshot(1)
			dec := r.c.Fault(Fault{At: r.clk(), Dead: []int{1}, Progress: r.progress(1, 3)})
			if !dec.Replace || dec.Epoch != 1 {
				r.t.Fatalf("decision = %+v, want a re-placed restart from epoch 1", dec)
			}
			if r.c.Due(1) == nil {
				r.t.Fatal("rescale dropped by the fault")
			}
			if got := r.c.Graph().Operator("win").Parallelism; got != 2 {
				r.t.Fatalf("fault rescaled the graph to %d", got)
			}
			if err := r.c.SetPlan(r.planOn(func(i int, _ dataflow.TaskID) int { return []int{0, 2}[i%2] })); err != nil {
				r.t.Fatal(err)
			}
			r.c.AttemptStarted()
			r.snapshot(2)
			if _, err := r.c.RescaleDrained(2, r.clk(), nil, 2); err != nil {
				r.t.Fatalf("pending rescale did not apply after recovery: %v", err)
			}
			if got := r.c.DeadWorkers(); len(got) != 1 || got[0] != 1 {
				r.t.Errorf("dead workers = %v, want [1]", got)
			}
		}},
		{"reprocessed records survive pruning of the previous restore epoch", func(r *coreRig) {
			r.snapshot(1)
			r.snapshot(2)
			r.c.Fault(Fault{At: r.clk(), Progress: r.progress(2, 1)})
			r.c.AttemptStarted()
			r.snapshot(3)
			r.snapshot(4) // prunes epochs 2 and 3 from the store
			if r.c.ckpt.snapshotFor(win(0), 2) != nil {
				r.t.Fatal("epoch 2 not pruned")
			}
			// With no snapshot at the rollback point, each task's baseline
			// is the epoch-2 restore, which only the core still holds.
			if got, want := r.c.rollback(r.progress(2, 5), 0), int64(5*5); got != want {
				r.t.Errorf("rollback over the pruned restore = %d, want %d", got, want)
			}
			dec := r.c.Fault(Fault{At: r.clk(), Progress: r.progress(4, 9)})
			if dec.Epoch != 4 {
				r.t.Fatalf("restored from %d, want 4", dec.Epoch)
			}
			if got, want := r.finish().RecordsReprocessed, int64(1*5+9*5); got != want {
				r.t.Errorf("reprocessed = %d, want %d", got, want)
			}
		}},
		{"invalid plans are rejected", func(r *coreRig) {
			r.c.Fault(Fault{At: r.clk(), Dead: []int{2}})
			before := r.c.Plan()
			partial := dataflow.NewPlan()
			partial.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
			invented := r.planOn(func(i int, _ dataflow.TaskID) int { return i % 2 })
			invented.Assign(win(9), 0)
			for name, plan := range map[string]*dataflow.Plan{
				"nil":         nil,
				"partial":     partial,
				"dead worker": r.planOn(func(i int, _ dataflow.TaskID) int { return i % 3 }),
				"over capacity": r.planOn(func(i int, _ dataflow.TaskID) int {
					return min(i, 1) // four tasks on worker 1's three slots
				}),
				"invented task": invented,
			} {
				if err := r.c.SetPlan(plan); !errors.Is(err, ErrInvalidPlan) {
					r.t.Errorf("%s: err = %v, want ErrInvalidPlan", name, err)
				}
			}
			if r.c.Plan() != before {
				r.t.Error("a rejected plan replaced the current one")
			}
			if err := r.c.SetPlan(r.planOn(func(i int, _ dataflow.TaskID) int { return i % 2 })); err != nil {
				r.t.Errorf("valid plan rejected: %v", err)
			}
		}},
		{"downtime windows close on attempt started", func(r *coreRig) {
			r.snapshot(1)
			r.c.Fault(Fault{At: r.clk()})
			if r.finish().Downtime != 0 {
				r.t.Fatal("downtime counted before the next attempt started")
			}
			if evs := r.c.AttemptStarted(); len(evs) != 0 {
				r.t.Errorf("fault restart emitted %+v", evs)
			}
			if got := r.finish().Downtime; got != time.Millisecond {
				r.t.Errorf("downtime = %v, want 1ms", got)
			}
			if err := r.c.Schedule(RescalePlan{Op: "win", Parallelism: 1}); err != nil {
				r.t.Fatal(err)
			}
			r.snapshot(2)
			if _, err := r.c.RescaleDrained(2, r.clk(), nil, 2); err != nil {
				r.t.Fatal(err)
			}
			evs := r.c.AttemptStarted()
			if len(evs) != 1 || evs[0].Kind != telemetry.EventRescaleComplete || evs[0].Attrs["downtime_ms"] != 1.0 {
				r.t.Errorf("events = %+v, want one rescale.complete after 1ms", evs)
			}
			if evs := r.c.AttemptStarted(); len(evs) != 0 {
				r.t.Errorf("closed window reported again: %+v", evs)
			}
			res := r.finish()
			if res.Downtime != time.Millisecond || res.RescaleDowntime != time.Millisecond {
				r.t.Errorf("downtime=%v rescale downtime=%v, want 1ms each", res.Downtime, res.RescaleDowntime)
			}
		}},
		{"schedule rejects requests that can never apply", func(r *coreRig) {
			for _, p := range []RescalePlan{
				{Op: "src", Parallelism: 3},
				{Op: "nope", Parallelism: 2},
				{Op: "win", Parallelism: 0},
				{Op: "win", Parallelism: r.c.KeyGroups() + 1},
				{Op: "win", Parallelism: 2, AtEpoch: -1},
			} {
				if err := r.c.Schedule(p); err == nil {
					r.t.Errorf("rescale %+v accepted", p)
				}
			}
			if r.c.Due(1<<40) != nil {
				r.t.Error("a rejected rescale is pending")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(newCoreRig(t)) })
	}
}

// TestReconfigScheduleConcurrent queues and polls rescales from several
// goroutines while the runner applies them, as Job.Rescale and the task
// goroutines' Due checks do during a run; run it with -race.
func TestReconfigScheduleConcurrent(t *testing.T) {
	r := newCoreRig(t)
	var wg sync.WaitGroup
	defer wg.Wait()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := r.c.Schedule(RescalePlan{Op: "win", Parallelism: 1 + (g+i)%3}); err != nil {
					t.Error(err)
					return
				}
				r.c.Due(int64(i))
			}
		}(g)
	}
	for e := int64(1); e <= 20; e++ {
		r.snapshot(e)
		if r.c.Due(e) == nil {
			continue
		}
		if _, err := r.c.RescaleDrained(e, r.clk(), nil, int(e)); err != nil {
			t.Fatal(err)
		}
		plan, err := r.c.DefaultRescalePlan()
		if err == nil {
			err = r.c.SetPlan(plan)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
