package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/telemetry"
)

// engineLayers reports the per-layer breakdown of a traced throughput phase
// against an untraced one run in the same process. unwrappedNS estimates,
// from the replay probes, work the wrappers cannot see (checkpoint
// snapshots at barriers); it counts toward the trace's coverage.
func engineLayers(r *report, g *dataflow.LogicalGraph, traced, untraced *phaseResult, unwrappedNS float64) {
	res := traced.res
	elapsed := res.Elapsed.Seconds()
	var selfNS, emitNS, emitted int64
	// blocked is the wrapped operators' backpressure: time inside emit
	// spent waiting, not working.
	var blocked float64
	for _, op := range g.Operators() {
		id := op.ID
		prefix := "engine." + string(id) + "."
		var busy, bp float64
		tasks := 0
		for tid, st := range res.Tasks {
			if tid.Op == id {
				busy += st.BusyTime.Seconds()
				bp += st.BackpressureT.Seconds()
				tasks++
			}
		}
		if len(g.Upstream(id)) > 0 {
			blocked += bp
		}
		if tasks > 0 && elapsed > 0 {
			r.set(prefix+"busy_frac", busy/float64(tasks)/elapsed)
			r.set(prefix+"bp_frac", bp/float64(tasks)/elapsed)
		}
		if len(g.Upstream(id)) == 0 {
			calls, ns := traced.sources.nextTotals()
			r.set(prefix+"records_out", float64(res.SourceRecords))
			if calls > 0 {
				r.set(prefix+"self_ns", float64(ns)/float64(calls))
				r.set("nexmark.next_ns", float64(ns)/float64(calls))
			}
			selfNS += ns
			continue
		}
		var in, out, self, em int64
		for _, t := range traced.ops[id] {
			in += t.in
			out += t.out
			self += t.selfNS
			em += t.emitNS
		}
		r.set(prefix+"records_in", float64(in))
		r.set(prefix+"records_out", float64(out))
		if in > 0 {
			r.set(prefix+"self_ns", float64(self)/float64(in))
		}
		selfNS += self
		emitNS += em
		emitted += out
	}
	if emitted > 0 {
		r.set("engine.emit_ns", float64(emitNS)/float64(emitted))
	}
	m := res.Metrics.Snapshot()
	if b := m["exchange.batches"]; b > 0 {
		r.set("engine.exchange.batch_mean", m["exchange.batch_records"]/b)
	}
	senders := 0
	for tid := range res.Tasks {
		if len(g.Downstream(tid.Op)) > 0 {
			senders++
		}
	}
	stall := m["exchange.credit_stall_seconds"]
	if senders > 0 && elapsed > 0 {
		r.set("engine.exchange.credit_stall_frac", stall/float64(senders)/elapsed)
	}
	if recs := float64(res.SourceRecords); recs > 0 {
		r.set("process.alloc_bytes_per_rec", float64(traced.usage.allocBytes)/recs)
	}
	r.set("process.gc_cpu_frac", traced.usage.gcFrac())

	explained := float64(selfNS) + float64(emitNS) - blocked*1e9 + unwrappedNS
	if cpu := traced.usage.cpu; cpu > 0 {
		r.set("trace.coverage", explained/float64(cpu))
	}
	tracedRate, untracedRate := traced.rate(), untraced.rate()
	r.set("telemetry.overhead_frac", 1-tracedRate/untracedRate)
	r.note("traced throughput %.0f rec/s against untraced %.0f rec/s; process CPU %.2fs over %.2fs", tracedRate, untracedRate, traced.usage.cpu.Seconds(), elapsed)
}

// netLayers reports the network transport and the wire codec from a traced
// job over the network transport: its net.* counters per source record,
// and the codec probe's replay of the records its operators received.
func netLayers(r *report, g *dataflow.LogicalGraph, job *phaseResult) error {
	var sample []engine.Record
	for _, op := range g.Operators() {
		for _, t := range job.ops[op.ID] {
			sample = append(sample, t.sample...)
		}
	}
	encNS, decNS, bytesPerRec, err := codecProbe(sample, engine.DefaultBatchSize)
	if err != nil {
		return err
	}
	r.set("engine.codec.encode_ns_per_rec", encNS)
	r.set("engine.codec.decode_ns_per_rec", decNS)
	r.set("engine.codec.bytes_per_rec", bytesPerRec)
	m := job.res.Metrics.Snapshot()
	recs := float64(job.res.SourceRecords)
	r.set("engine.net.bytes_per_rec", m["net.bytes_sent"]/recs)
	r.set("engine.net.frames_per_rec", m["net.frames_sent"]/recs)
	r.set("engine.net.credit_wait_p99_us", m["net.credit_wait_p99_us"])
	r.note("network job: %.0f rec/s, %.0f wire bytes per record", job.rate(), m["net.bytes_sent"]/recs)
	return nil
}

// reconfigLayers reports checkpoint, recovery, rescale and re-placement
// costs from a reconfiguration phase run with the engine's telemetry.
func reconfigLayers(r *report, ph *phaseResult) {
	res := ph.res
	starts := make(map[int64]float64)
	var ckpt []float64
	for _, ev := range ph.tel.Tracer().Events() {
		switch ev.Kind {
		case telemetry.EventCheckpointStart:
			starts[ev.Epoch] = ev.TMS
		case telemetry.EventCheckpointComplete:
			if t0, ok := starts[ev.Epoch]; ok {
				ckpt = append(ckpt, ev.TMS-t0)
				delete(starts, ev.Epoch)
			}
		}
	}
	r.set("engine.checkpoint.count", float64(len(ckpt)))
	r.set("engine.checkpoint.p50_ms", median(ckpt))
	if res.Recoveries > 0 {
		r.set("engine.recovery.downtime_ms", float64(res.Downtime)/1e6/float64(res.Recoveries))
	}
	r.set("engine.rescale.downtime_ms", median(rescaleDowntimes(ph)))
	r.set("engine.reprocessed_records", float64(res.RecordsReprocessed))
	r.set("engine.rescale.moved_bytes", float64(res.RescaleMovedBytes))
	r.set("controller.replace_ms", median(ph.replaceMS))
}

// rescaleDowntimes returns each rescale's downtime in milliseconds from the
// engine's rescale.complete events.
func rescaleDowntimes(ph *phaseResult) []float64 {
	var out []float64
	for _, ev := range ph.tel.Tracer().Events() {
		if ev.Kind != telemetry.EventRescaleComplete {
			continue
		}
		if d, ok := ev.Attrs["downtime_ms"].(float64); ok {
			out = append(out, d)
		}
	}
	return out
}

// downtimes returns every reconfiguration's downtime in milliseconds: each
// rescale's, and the recoveries' mean downtime once per recovery.
func downtimes(ph *phaseResult) []float64 {
	out := rescaleDowntimes(ph)
	for i := 0; i < ph.res.Recoveries; i++ {
		out = append(out, float64(ph.res.Downtime)/1e6/float64(ph.res.Recoveries))
	}
	return out
}

// rescaleCPUDowntimes returns each rescale's downtime in process CPU
// milliseconds: the CPU time from the checkpoint completion that triggered
// the drain to the rescale.complete event. The engine starts a rescale's
// downtime right after it emits that checkpoint.complete and reports the
// downtime in wall milliseconds on rescale.complete, so the trigger is the
// earlier checkpoint.complete nearest to the complete event's time less
// its downtime. cpuAt gives the CPU time at an event's sequence number.
func rescaleCPUDowntimes(events []telemetry.Event, cpuAt func(seq int64) (time.Duration, bool)) ([]float64, error) {
	var out []float64
	for k, ev := range events {
		if ev.Kind != telemetry.EventRescaleComplete {
			continue
		}
		wall, ok := ev.Attrs["downtime_ms"].(float64)
		if !ok {
			return nil, fmt.Errorf("rescale.complete at %.3f ms carries no downtime", ev.TMS)
		}
		start := ev.TMS - wall
		trigger := -1
		for i := k - 1; i >= 0; i-- {
			c := events[i]
			if c.Kind != telemetry.EventCheckpointComplete {
				continue
			}
			if trigger < 0 || math.Abs(c.TMS-start) < math.Abs(events[trigger].TMS-start) {
				trigger = i
			}
			if c.TMS < start {
				break
			}
		}
		if trigger < 0 {
			return nil, fmt.Errorf("rescale.complete at %.3f ms has no triggering checkpoint", ev.TMS)
		}
		c0, ok0 := cpuAt(events[trigger].Seq)
		c1, ok1 := cpuAt(ev.Seq)
		if !ok0 || !ok1 {
			return nil, fmt.Errorf("rescale at %.3f ms: no CPU stamp", ev.TMS)
		}
		out = append(out, float64(c1-c0)/1e6)
	}
	return out, nil
}

// reportDowntimes sets reconfig_cpu_ms from the jobs' rescale downtimes
// on the CPU clock: each scheduled rescale by the median of its
// repetitions over the jobs, then the mean over the schedule. A crash's
// recovery is not in it: the engine emits no event where the recovery's
// downtime starts.
func reportDowntimes(r *report, jobs []*phaseResult, rescales int) error {
	var perJob, wall []float64
	byRescale := make([][]float64, rescales)
	for _, job := range jobs {
		d, err := rescaleCPUDowntimes(job.tel.Tracer().Events(), job.cpuAt.of)
		if err != nil {
			return err
		}
		w := rescaleDowntimes(job)
		if len(w) != len(d) {
			return fmt.Errorf("%d rescale downtimes on the CPU clock, %d on the wall clock", len(d), len(w))
		}
		if len(d) != rescales {
			return fmt.Errorf("%d of %d rescales ran", len(d), rescales)
		}
		wall = append(wall, median(w))
		perJob = append(perJob, median(d))
		for i, x := range d {
			byRescale[i] = append(byRescale[i], x)
		}
	}
	var sum float64
	for _, xs := range byRescale {
		sum += median(xs)
	}
	r.set("reconfig_cpu_ms", sum/float64(rescales))
	r.note("%d rescales in %d jobs, per-job median downtime %.3f CPU-ms, %.3f ms", rescales, len(jobs), perJob, wall)
	return nil
}

// reprocessingCheck checks that a reconfiguration job reprocessed at most
// one checkpoint epoch's work per restart, and that every scheduled
// reconfiguration ran. One epoch's work is interval records per source
// task, each processed by hops operator tasks below the sources before the
// end of input. The engine reports only the job's total, so the check
// bounds the sum over its restarts.
func reprocessingCheck(r *report, ph *phaseResult, sources int, interval, hops int64, reconfigs int) {
	restarts := int64(ph.res.Rescales + ph.res.Recoveries)
	limit := restarts * int64(sources) * interval * hops
	failed := int64(0)
	if ph.res.RecordsReprocessed > limit {
		failed = 1
	}
	r.check("reconfig reprocessing", restarts, failed, fmt.Sprintf("%d records reprocessed over %d restarts, limit %d", ph.res.RecordsReprocessed, restarts, limit))
	if n := len(downtimes(ph)); n != reconfigs {
		r.check("reconfig count", int64(reconfigs), 1, fmt.Sprintf("%d of %d reconfigurations ran", n, reconfigs))
	}
}

// searchProbe runs CAPS's two steps one by one — auto-tune, then the
// exhaustive search placement.CAPS runs — reports their effort, and returns
// the search result and the two steps' total time.
func searchProbe(ctx context.Context, r *report, phys *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage) (*caps.Result, time.Duration, error) {
	t0 := time.Now()
	tuned, err := caps.AutoTune(ctx, phys, c, u, caps.DefaultAutoTuneOptions())
	if err != nil {
		return nil, 0, err
	}
	autotune := time.Since(t0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	res, err := caps.Search(ctx, phys, c, u, caps.Options{
		Alpha: tuned.Alpha, Mode: caps.Exhaustive, Reorder: true, MaxNodes: searchNodeBudget,
	})
	if err != nil {
		return nil, 0, err
	}
	search := time.Since(t1)
	runtime.ReadMemStats(&ms1)
	st := res.Stats
	r.set("caps.autotune_s", autotune.Seconds())
	r.set("caps.search_s", search.Seconds())
	r.set("caps.nodes", float64(st.Nodes))
	r.set("caps.cost_evals", float64(st.CostEvals))
	r.set("caps.plans", float64(st.Plans))
	r.set("caps.memo_prunes", float64(st.MemoPrunes))
	r.set("caps.budget_prunes", float64(st.BudgetPrunes))
	if st.Nodes > 0 {
		r.set("caps.ns_per_node", float64(search)/float64(st.Nodes))
		r.set("caps.plans_per_node", float64(st.Plans)/float64(st.Nodes))
		r.set("caps.alloc_bytes_per_node", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(st.Nodes))
	}
	return res, autotune + search, nil
}

// searchNodeBudget is the node budget placement.CAPS gives an exhaustive
// search.
const searchNodeBudget = 5_000_000

// gomaxprocsOne reruns fn with GOMAXPROCS=1 and restores the setting.
func gomaxprocsOne(fn func() error) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// setupLayers times graph expansion and usage pricing, the set-up layers
// (see repeatTimed).
func setupLayers(r *report, g *dataflow.LogicalGraph, rates map[dataflow.OperatorID]float64) error {
	expand, err := repeatTimed(func() error {
		_, err := dataflow.Expand(g)
		return err
	})
	if err != nil {
		return err
	}
	usage, err := repeatTimed(func() error {
		_, err := usageOf(g, rates)
		return err
	})
	if err != nil {
		return err
	}
	r.set("dataflow.expand_ms", median(expand)*1e3)
	r.set("costmodel.usage_ms", median(usage)*1e3)
	return nil
}

// recordLatencies turns sink arrivals into due-time latencies, dropping
// arrivals for which due returns false.
func recordLatencies(ph *phaseResult, dueIndex func(t int64) (int64, bool)) []float64 {
	times, at := ph.sinks.arrivalSamples()
	out := make([]float64, 0, len(times))
	for k, t := range times {
		i, ok := dueIndex(t)
		if !ok {
			continue
		}
		out = append(out, ph.sched.latencyMS(i, time.Unix(0, at[k])))
	}
	return out
}

// reportLatency sets the latency metrics from one sample per job: the
// median over jobs of each job's median and of each job's p99. Every job's
// p99 must have at least minTail samples beyond it.
func reportLatency(r *report, jobs [][]float64, lags []float64) error {
	var p50s, p99s, pooled []float64
	for _, lat := range jobs {
		p50, ok50 := percentile(lat, 0.50)
		p99, ok99 := percentile(lat, 0.99)
		if !ok50 || !ok99 {
			return errTooFewSamples(len(lat))
		}
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		pooled = append(pooled, lat...)
	}
	r.set("latency_p50_ms", median(p50s))
	r.set("latency_p99_ms", median(p99s))
	p, v, _ := highestSupported(pooled, 0.5, 0.9, 0.99, 0.999, 0.9999)
	lagP99, _ := percentile(lags, 0.99)
	r.note("latency: %d jobs, %d samples, per-job p50 %.3f ms and p99 %.3f ms; pooled p%g %.3f ms; generator lag p99 %.3f ms over %d records",
		len(jobs), len(pooled), p50s, p99s, p*100, v, lagP99, len(lags))
	return nil
}

func errTooFewSamples(n int) error {
	return fmt.Errorf("%d latency samples are too few for a p99 with %d beyond it", n, minTail)
}
