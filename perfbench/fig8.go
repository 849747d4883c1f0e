package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
)

// place-fig8: the paper's §6.2.2 decision. The six Nexmark queries at 0.7
// of their single-query targets are merged and jointly placed by CAPS
// through controller.DeployAll on the 18-worker, 144-slot cluster, and the
// simulator scores the plan. The search spends its whole node budget, so
// the decision's work is fixed. The run then serves online
// reconfigurations of the placed workload in a closed loop (see
// controlLoop): DS2's decisions for each query under changed loads,
// re-placed by CAPS. Only controller, ds2, caps and simulator run.
const fig8Scale = 0.7

func fig8Specs() []nexmark.QuerySpec {
	var specs []nexmark.QuerySpec
	for _, s := range nexmark.AllQueries() {
		specs = append(specs, s.Scaled(fig8Scale))
	}
	return specs
}

// qualified namespaces an operator ID with its query, as the controller's
// joint placement does.
func qualified(query string, id dataflow.OperatorID) dataflow.OperatorID {
	return dataflow.OperatorID(query + "/" + string(id))
}

// mergedWorkload is the six queries as the one graph CAPS places jointly.
type mergedWorkload struct {
	specs []nexmark.QuerySpec
	graph *dataflow.LogicalGraph
	rates map[dataflow.OperatorID]float64
	phys  *dataflow.PhysicalGraph
	usage *costmodel.Usage
}

func mergeQueries(specs []nexmark.QuerySpec) (*mergedWorkload, error) {
	m := &mergedWorkload{specs: specs, graph: dataflow.NewLogicalGraph(), rates: make(map[dataflow.OperatorID]float64)}
	for _, s := range specs {
		for _, op := range s.Graph.Operators() {
			cp := *op
			cp.ID = qualified(s.Name, op.ID)
			if err := m.graph.AddOperator(cp); err != nil {
				return nil, err
			}
		}
		for _, e := range s.Graph.Edges() {
			if err := m.graph.AddEdge(dataflow.Edge{From: qualified(s.Name, e.From), To: qualified(s.Name, e.To), Mode: e.Mode}); err != nil {
				return nil, err
			}
		}
		for id, rate := range s.SourceRates {
			m.rates[qualified(s.Name, id)] = rate
		}
	}
	var err error
	if m.phys, err = dataflow.Expand(m.graph); err != nil {
		return nil, err
	}
	if m.usage, err = usageOf(m.graph, m.rates); err != nil {
		return nil, err
	}
	return m, nil
}

// jointPlan folds per-query deployments back into one plan over the merged
// graph's task IDs.
func jointPlan(deps []controller.Deployment) *dataflow.Plan {
	pl := dataflow.NewPlan()
	for _, d := range deps {
		d.Plan.Each(func(t dataflow.TaskID, w int) {
			pl.Assign(dataflow.TaskID{Op: qualified(d.Spec.Name, t.Op), Index: t.Index}, w)
		})
	}
	return pl
}

// splitPlan is jointPlan's inverse: one simulator deployment per query.
func (m *mergedWorkload) splitPlan(plan *dataflow.Plan) ([]simulator.QueryDeployment, error) {
	var out []simulator.QueryDeployment
	for _, s := range m.specs {
		phys, err := dataflow.Expand(s.Graph)
		if err != nil {
			return nil, err
		}
		pl := dataflow.NewPlan()
		for _, t := range phys.Tasks() {
			w, ok := plan.Worker(dataflow.TaskID{Op: qualified(s.Name, t.Op), Index: t.Index})
			if !ok {
				return nil, fmt.Errorf("plan misses task %v of %s", t, s.Name)
			}
			pl.Assign(t, w)
		}
		out = append(out, simulator.QueryDeployment{Name: s.Name, Phys: phys, Plan: pl, SourceRates: s.SourceRates})
	}
	return out, nil
}

// planErrors counts the tasks of phys a plan leaves unplaced or puts on an
// unknown worker, plus the tasks beyond any worker's slots.
func planErrors(phys *dataflow.PhysicalGraph, plan *dataflow.Plan, c *cluster.Cluster) int64 {
	var bad int64
	used := make([]int, c.NumWorkers())
	for _, t := range phys.Tasks() {
		w, ok := plan.Worker(t)
		if !ok || w < 0 || w >= c.NumWorkers() {
			bad++
			continue
		}
		used[w]++
	}
	for w, n := range used {
		if over := n - c.Worker(w).Slots; over > 0 {
			bad += int64(over)
		}
	}
	return bad
}

// fingerprint hashes a plan's assignment in task order.
func fingerprint(phys *dataflow.PhysicalGraph, plan *dataflow.Plan) uint64 {
	var h uint64
	for _, t := range phys.Tasks() {
		w, _ := plan.Worker(t)
		h = mix64(h ^ hashString(t.String()) ^ uint64(w))
	}
	return h
}

// minTargetFrac is the minimum over queries of simulated throughput over
// target.
func minTargetFrac(res *simulator.Result) float64 {
	frac := math.Inf(1)
	for _, q := range res.Queries {
		frac = math.Min(frac, q.Throughput/q.Target)
	}
	return frac
}

// fig8Loads are the load changes the online phase answers: every query's
// target rate scaled by each factor, as a variable workload would move it.
var fig8Loads = []float64{0.6, 0.8, 1.25, 1.5}

// fig8ReplaceNodes is the node budget of one online re-placement search
// and of each feasibility probe that tunes its thresholds; the 5M-node
// default would spend half a minute on one reconfiguration of this
// cluster. The search explores in the probes' order, so the plan the last
// probe found is within its budget.
const fig8ReplaceNodes = 1000

// fig8PlanFingerprint is the joint plan's fingerprint. CAPS is
// deterministic and ignores the seed, so every seed yields this plan.
const fig8PlanFingerprint = 0x9d266e16393da14a

// rescaleRequest is one online reconfiguration: DS2's decision for one
// query whose target rate changed by factor, and the thresholds CAPS
// places it under.
type rescaleRequest struct {
	query  nexmark.QuerySpec
	factor float64
	alpha  costmodel.Vector
}

// controlLoop serves rescale requests against the jointly placed workload
// the way the controller reconfigures online: DS2 sizes the query from the
// simulator's per-task metrics of the running plan, controller.
// PlansFromDecision turns its decision into rescale plans, and the shared
// re-placement (rePlace) places the rescaled merged topology by CAPS under
// the thresholds tuned for it. The search starts cold, as the paper's CAPS
// re-runs on every scaling decision: warm-started from the running plan,
// whose surviving part breaks the retuned thresholds, it found no plan
// within the budget for most requests. Every request starts from the
// running deployment, so the requests are independent.
type controlLoop struct {
	m    *mergedWorkload
	c    *cluster.Cluster
	sim  *simulator.Result
	seed int64
}

// requests lists every (query, load) pair whose DS2 decision rescales at
// least one operator, with thresholds auto-tuned offline for its rescaled
// topology, as CAPS tunes them before a deployment.
func (l *controlLoop) requests(ctx context.Context) ([]rescaleRequest, error) {
	tune := caps.DefaultAutoTuneOptions()
	tune.ProbeMaxNodes = fig8ReplaceNodes
	var out []rescaleRequest
	for _, q := range l.m.specs {
		for _, f := range fig8Loads {
			req := rescaleRequest{query: q, factor: f}
			over, rates, err := l.decide(req)
			if err != nil {
				return nil, err
			}
			if len(over) == 0 {
				continue
			}
			phys, u, err := rescaledTopology(l.m.graph, over, rates)
			if err != nil {
				return nil, err
			}
			tuned, err := caps.AutoTune(ctx, phys, l.c, u, tune)
			if err != nil {
				return nil, fmt.Errorf("%s at %gx: %w", q.Name, f, err)
			}
			req.alpha = tuned.Alpha
			out = append(out, req)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no load change makes DS2 rescale")
	}
	return out, nil
}

// decide runs DS2 for one request and returns the rescaled parallelisms
// over the merged graph and the merged source rates under the new load.
func (l *controlLoop) decide(req rescaleRequest) (map[dataflow.OperatorID]int, map[dataflow.OperatorID]float64, error) {
	// DS2 takes useful fractions in (0, 1]; the simulator reports 0 for
	// an idle task.
	obs := make(map[dataflow.TaskID]ds2.TaskRates)
	for k, tm := range l.sim.Tasks {
		if k.Query == req.query.Name {
			obs[k.Task] = ds2.TaskRates{ObservedIn: tm.ObservedInRate, ObservedOut: tm.ObservedOutRate, UsefulFraction: min(max(tm.UsefulFraction, 1e-9), 1)}
		}
	}
	metrics, err := ds2.MetricsFromObservation(req.query.Graph, obs)
	if err != nil {
		return nil, nil, err
	}
	targets := make(map[dataflow.OperatorID]float64, len(req.query.SourceRates))
	rates := make(map[dataflow.OperatorID]float64, len(l.m.rates))
	for id, r := range l.m.rates {
		rates[id] = r
	}
	for id, r := range req.query.SourceRates {
		targets[id] = r * req.factor
		rates[qualified(req.query.Name, id)] = r * req.factor
	}
	dec, err := ds2.Scale(req.query.Graph, metrics, targets, ds2.Options{})
	if err != nil {
		return nil, nil, err
	}
	over := make(map[dataflow.OperatorID]int)
	for _, p := range controller.PlansFromDecision(dec, req.query.Graph, 0) {
		over[qualified(req.query.Name, p.Op)] = p.Parallelism
	}
	return over, rates, nil
}

// serve answers one request and returns its re-placement's CPU time, or why
// it produced no valid plan.
func (l *controlLoop) serve(ctx context.Context, req rescaleRequest) (time.Duration, error) {
	over, rates, err := l.decide(req)
	if err != nil {
		return 0, err
	}
	t0 := cpuNow()
	strat := placement.CAPS{Alpha: req.alpha, Search: caps.Options{MaxNodes: fig8ReplaceNodes}}
	phys, plan, err := rePlace(ctx, strat, l.m.graph, over, rates, l.c, l.seed, nil)
	took := cpuNow() - t0
	if err != nil {
		return took, fmt.Errorf("%s at %gx: %w", req.query.Name, req.factor, err)
	}
	if bad := planErrors(phys, plan, l.c); bad > 0 {
		return took, fmt.Errorf("%s at %gx: %d tasks misplaced", req.query.Name, req.factor, bad)
	}
	return took, nil
}

func runFig8(ctx context.Context, cfg config, r *report) error {
	c := nexmark.MultiTenantCluster()
	var m *mergedWorkload
	var setups []float64
	// setup times the merge, expansion and pricing that precede the
	// search. It runs at several points of the run, so its samples span
	// the run; setup_s is their median.
	setup := func() error {
		s, err := repeatTimed(func() error {
			var err error
			m, err = mergeQueries(fig8Specs())
			return err
		})
		setups = append(setups, s...)
		r.set("setup_s", median(setups))
		return err
	}
	if err := setup(); err != nil {
		return err
	}

	t0, c0, from := time.Now(), cpuNow(), host.mark()
	deps, sim, err := controller.DeployAll(ctx, m.specs, c, placement.CAPS{}, cfg.seed, simulator.DefaultConfig())
	if err != nil {
		return fmt.Errorf("joint decision: %w", err)
	}
	decision := time.Since(t0)
	r.set("decision_cpu_s", (cpuNow() - c0).Seconds())
	r.hostSpan("decision_cpu_s", from)
	plan := jointPlan(deps)
	r.check("joint decision plan", 1, min(1, planErrors(m.phys, plan, c)), fmt.Sprintf("%d tasks on %d slots", m.phys.NumTasks(), c.TotalSlots()))
	r.set("plan_tput_frac", minTargetFrac(sim))
	fp, changed := fingerprint(m.phys, plan), int64(0)
	if fp != fig8PlanFingerprint {
		changed = 1
	}
	r.check("joint plan is the pinned plan", 1, changed, fmt.Sprintf("fingerprint %016x, pinned %016x", fp, uint64(fig8PlanFingerprint)))

	if cfg.trace {
		return fig8Traced(ctx, r, m, c, plan, sim, decision, cfg.seed)
	}

	if err := setup(); err != nil {
		return err
	}
	loop := &controlLoop{m: m, c: c, sim: sim, seed: cfg.seed}
	t0 = time.Now()
	reqs, err := loop.requests(ctx)
	if err != nil {
		return err
	}
	r.note("%d DS2 rescale requests from %d queries under %d loads, thresholds tuned in %v", len(reqs), len(m.specs), len(fig8Loads), time.Since(t0))
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(reqs))

	// Closed loop over the requests in a seeded order. One request's CPU
	// time varies from one repetition to the next with the collector's
	// cycles and the host's load, so each request is summarised by the
	// median of its repetitions:
	// reconfig_cpu_ms is the mean over requests of that re-placement time,
	// and ops_per_cpu_s the rate at which the loop serves a round of every
	// request at that cost. The loop starts from a collected heap, as
	// engine jobs do.
	runtime.GC()
	serveNS := make([][]float64, len(reqs))
	replaceMS := make([][]float64, len(reqs))
	var served, failed int64
	start, from := time.Now(), host.mark()
	for i := 0; time.Since(start) < cfg.budget(1.25); i++ {
		k := order[i%len(order)]
		c0 := cpuNow()
		took, err := loop.serve(ctx, reqs[k])
		if err != nil {
			if failed++; failed == 1 {
				r.note("closed loop, first failure: %v", err)
			}
		}
		served++
		serveNS[k] = append(serveNS[k], float64(cpuNow()-c0))
		replaceMS[k] = append(replaceMS[k], float64(took)/1e6)
	}
	r.check("closed-loop reconfigurations", served, failed, "")
	var roundNS, replace float64
	for k := range reqs {
		roundNS += median(serveNS[k])
		replace += median(replaceMS[k])
	}
	r.set("ops_per_cpu_s", float64(len(reqs))/(roundNS/1e9))
	r.set("reconfig_cpu_ms", replace/float64(len(reqs)))
	r.hostSpan("ops_per_cpu_s", from)
	r.hostSpan("reconfig_cpu_ms", from)
	r.note("closed loop: %d requests, %d rounds of %d, in %v", served, served/int64(len(reqs)), len(reqs), time.Since(start))
	return setup()
}

func fig8Traced(ctx context.Context, r *report, m *mergedWorkload, c *cluster.Cluster, plan *dataflow.Plan, sim *simulator.Result, decision time.Duration, seed int64) error {
	if err := setupLayers(r, m.graph, m.rates); err != nil {
		return err
	}
	before := readProcessUsage()
	res, steps, err := searchProbe(ctx, r, m.phys, c, m.usage)
	if err != nil {
		return err
	}
	r.set("process.gc_cpu_frac", readProcessUsage().since(before).gcFrac())
	same := int64(0)
	if !res.Feasible || !res.Plan.Equal(plan) {
		same = 1
	}
	r.check("auto-tune + search reproduce DeployAll's plan", 1, same, "")
	sdeps, err := m.splitPlan(res.Plan)
	if err != nil {
		return err
	}
	var evals []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		if _, err := simulator.Evaluate(sdeps, c, simulator.DefaultConfig()); err != nil {
			return err
		}
		evals = append(evals, float64(time.Since(t0))/1e6)
	}
	r.set("simulator.evaluate_ms", median(evals))
	tracedMS := r.metrics["dataflow.expand_ms"] + r.metrics["costmodel.usage_ms"] + float64(steps)/1e6 + median(evals)
	decisionMS := float64(decision) / 1e6
	r.set("trace.coverage", tracedMS/decisionMS)
	// No tracer runs in this workload: its layers are timed by calling
	// them one by one.
	r.set("telemetry.overhead_frac", 0)

	loop := &controlLoop{m: m, c: c, sim: sim, seed: seed}
	reqs, err := loop.requests(ctx)
	if err != nil {
		return err
	}
	var service []float64
	var failed int64
	for _, req := range reqs {
		took, err := loop.serve(ctx, req)
		if err != nil {
			failed++
			r.note("%v", err)
		}
		service = append(service, float64(took)/1e6)
	}
	r.check("reconfigurations", int64(len(service)), failed, "")
	r.set("controller.replace_ms", median(service))
	return nil
}
