package main

import (
	"context"
	"fmt"
	"strconv"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
)

// q1win-reconfig: Nexmark Q1-sliding (bids keyed by auction -> map -> keyed
// 2 s / 500 ms sliding window held in state -> sink) on two workers over the
// batched in-memory transport, with checkpoint barriers. Its
// reconfiguration phase replays a reference job's input under a fixed
// schedule of live window rescales and one task crash, each re-placed by
// warm-started CAPS. No wire codec runs in its measured jobs; the traced
// run adds one job over the network transport for the codec and network
// layers.
const (
	// q1Rate is the traced run's open-loop source rate, about half the
	// sustainable rate on a 2-vCPU machine; it also sizes the reference
	// and reconfiguration jobs.
	q1Rate = 10000
	// q1ReconfigRate paces the reconfiguration jobs' sources at about half
	// the rate one core sustains, so a drain finds short queues.
	q1ReconfigRate = 25000
	// q1Rounds is how many throughput jobs, set-ups and reconfiguration
	// jobs the untraced run interleaves.
	q1Rounds = 6
	// q1Interval is the checkpoint interval in records per source task.
	q1Interval = 2000
	// q1ReconfigEpochs is how many checkpoint epochs a reconfiguration job
	// spans, enough for its schedule whatever the measuring time.
	q1ReconfigEpochs = 15
	// q1Slots fits the widest rescale (12 window tasks) on two workers.
	q1Slots = 12
	// Window geometry of the query's sliding window (milliseconds).
	q1Size  = 2000
	q1Slide = 500
)

// q1Rescales grows and shrinks the window, one rescale per checkpoint
// epoch; the reconfiguration phase adds one crash of a map task.
var q1Rescales = []engine.RescalePlan{
	{Op: "slide-win", Parallelism: 12, AtEpoch: 2},
	{Op: "slide-win", Parallelism: 4, AtEpoch: 3},
	{Op: "slide-win", Parallelism: 8, AtEpoch: 4},
	{Op: "slide-win", Parallelism: 10, AtEpoch: 5},
	{Op: "slide-win", Parallelism: 6, AtEpoch: 6},
	{Op: "slide-win", Parallelism: 12, AtEpoch: 7},
	{Op: "slide-win", Parallelism: 5, AtEpoch: 8},
	{Op: "slide-win", Parallelism: 9, AtEpoch: 9},
	{Op: "slide-win", Parallelism: 3, AtEpoch: 10},
	{Op: "slide-win", Parallelism: 11, AtEpoch: 11},
	{Op: "slide-win", Parallelism: 8, AtEpoch: 12},
}

// q1Fold hashes a window result by (auction, window end) weighted by its
// count, so the digest is the same however a window's count is split
// across results (a record arriving after its window fired yields a second
// partial result).
func q1Fold(rec engine.Record) (uint64, int64) {
	n, _ := rec.Value.(int)
	return hashRecord(rec.Key, 0, rec.Time), int64(n)
}

// q1Stream replays source task t's bid stream: the auction key and event
// time of each of its first n bids.
func q1Stream(seed int64, t int, n int64) (keys []int64, times []int64) {
	gen := nexmark.NewGenerator(seed+int64(t)*7919, 1)
	keys = make([]int64, n)
	times = make([]int64, n)
	for i := range keys {
		b := gen.NextBid()
		keys[i], times[i] = b.Auction, b.Timestamp
	}
	return keys, times
}

// q1Expected is the sink digest computed directly from the generator and
// the window's assignment: every bid counts once in each window containing
// its event time.
func q1Expected(seed int64, counts []int64) digest {
	var d digest
	key := make([]byte, 0, 24)
	for t, n := range counts {
		keys, times := q1Stream(seed, t, n)
		for i, a := range keys {
			key = strconv.AppendInt(append(key[:0], 'a'), a, 10)
			ts := times[i]
			for start := ts - ts%q1Slide; start > ts-q1Size && start >= 0; start -= q1Slide {
				d.add(hashRecord(string(key), 0, start+q1Size), 1)
			}
		}
	}
	return d
}

// q1Checker checks a job's sink digest against the generator and window
// formulas and passes the digest on.
func q1Checker(r *report, name string, seed int64, then func(digest)) func(*phaseResult) {
	return func(ph *phaseResult) {
		want := q1Expected(seed, sourceCounts(ph.res, "src", 2))
		got := ph.sinks.output()
		r.check(name+" sink digest", want.Count, got.failedAgainst(want), fmt.Sprintf("got %d window counts, want %d", got.Count, want.Count))
		if then != nil {
			then(got)
		}
	}
}

func runQ1Win(ctx context.Context, cfg config, r *report) error {
	model, err := twoWorkerModel(q1Slots)
	if err != nil {
		return err
	}
	rig := &engineRig{model: model, seed: cfg.seed, transport: engine.TransportBatched, fold: q1Fold}
	p, err := rig.setup(ctx, nexmark.Q1Sliding)
	if err != nil {
		return err
	}
	// setupAgain adds set-up samples from later in the run.
	setupAgain := func() error {
		_, err := rig.setup(ctx, nexmark.Q1Sliding)
		return err
	}

	// The reference job is the no-reconfiguration run whose input the
	// reconfiguration jobs replay exactly; in the traced run it is the
	// open-loop latency job.
	perTask := int64(q1Rate * cfg.budget(0.15).Seconds() / 2)
	refJob := phase{records: perTask, snapshotInterval: q1Interval}
	reconfig := refJob
	reconfig.rate = q1ReconfigRate
	reconfig.snapshotInterval = perTask / q1ReconfigEpochs
	reconfig.rescales = q1Rescales
	// The crash hits a map task late in the stream, after the rescales:
	// each map task sees about half of one source task's records.
	reconfig.crashes = []engine.TaskCrash{{Task: dataflow.TaskID{Op: "map", Index: 1}, AfterRecords: perTask * 2 / 5}}
	var reference digest
	checkReconfig := q1Checker(r, "reconfig", cfg.seed, func(got digest) {
		r.check("reconfig equals no-reconfig run", reference.Count, got.failedAgainst(reference), "")
	})
	// Until the end of input each source record reaches one map task and
	// one window task; no window fires before then (see q1Latencies).
	checkRestarts := func(ph *phaseResult) {
		checkReconfig(ph)
		reprocessingCheck(r, ph, 2, reconfig.snapshotInterval, 2, len(q1Rescales)+1)
	}
	keepReference := func(d digest) { reference = d }

	if cfg.trace {
		rig.reportSetup(r, p)
		steady := refJob
		steady.rate = q1Rate
		return q1Traced(ctx, cfg, r, rig, p, steady, reconfig, keepReference, checkRestarts)
	}

	ref, err := rig.run(ctx, p, refJob)
	if err != nil {
		return err
	}
	q1Checker(r, "reference", cfg.seed, keepReference)(ref)
	// The measured jobs run in rounds — a throughput job, a set-up, a
	// reconfiguration job — so every metric's samples span the whole run
	// and meet the same slow and fast phases of a shared host.
	throughput := phase{limit: cfg.budget(0.3) / q1Rounds, snapshotInterval: q1Interval}
	checkThroughput := q1Checker(r, "throughput", cfg.seed, nil)
	var tp, rc []*phaseResult
	for k := 0; k < q1Rounds; k++ {
		job, err := rig.run(ctx, p, throughput)
		if err != nil {
			return err
		}
		checkThroughput(job)
		tp = append(tp, job)
		if err := setupAgain(); err != nil {
			return err
		}
		if job, err = rig.run(ctx, p, reconfig); err != nil {
			return err
		}
		checkRestarts(job)
		rc = append(rc, job)
	}
	reportThroughput(r, tp)
	if err := reportDowntimes(r, rc, len(q1Rescales)); err != nil {
		return err
	}
	rig.reportSetup(r, p)
	return nil
}

func q1Traced(ctx context.Context, cfg config, r *report, rig *engineRig, p *placed, steady, reconfig phase, keepReference func(digest), checkRestarts func(*phaseResult)) error {
	untraced, err := rig.run(ctx, p, phase{limit: cfg.budget(0.2), snapshotInterval: q1Interval})
	if err != nil {
		return err
	}
	q1Checker(r, "untraced throughput", cfg.seed, nil)(untraced)
	traced, err := rig.run(ctx, p, phase{limit: cfg.budget(0.2), snapshotInterval: q1Interval, traced: true})
	if err != nil {
		return err
	}
	q1Checker(r, "traced throughput", cfg.seed, nil)(traced)
	var images [][]byte
	var writes, in, peak, snapshotted int64
	for _, t := range traced.ops["slide-win"] {
		images = append(images, t.image)
		writes += int64(t.state.Stats().Writes)
		in += t.in
		peak += t.stateBytesPeak
		snapshotted += t.snapshotBytes
	}
	if in > 0 {
		r.set("statebackend.writes_per_rec", float64(writes)/float64(in))
	}
	r.set("statebackend.bytes_peak", float64(peak))
	snapshotMSPerMB, err := stateProbe(r, images, len(images), q1Rescales[0].Parallelism)
	if err != nil {
		return err
	}
	// Checkpoint snapshots run at barriers, outside any operator call;
	// charge them at the state probe's snapshot cost.
	engineLayers(r, rig.spec.Graph, traced, untraced, float64(snapshotted)*snapshotMSPerMB)

	// The gated workloads run no wire codec; one traced job of the same
	// query over the TCP network transport measures that layer here.
	netRig := *rig
	netRig.transport = engine.TransportNetwork
	netJob, err := netRig.run(ctx, p, phase{limit: cfg.budget(0.15), snapshotInterval: q1Interval, traced: true})
	if err != nil {
		return err
	}
	q1Checker(r, "network throughput", cfg.seed, nil)(netJob)
	if err := netLayers(r, rig.spec.Graph, netJob); err != nil {
		return err
	}

	err = gomaxprocsOne(func() error {
		one, err := rig.run(ctx, p, phase{limit: cfg.budget(0.15), snapshotInterval: q1Interval})
		if err != nil {
			return err
		}
		q1Checker(r, "GOMAXPROCS=1 throughput", cfg.seed, nil)(one)
		r.set("engine.gomaxprocs1_rps", one.rate())
		return nil
	})
	if err != nil {
		return err
	}

	lag, err := rig.run(ctx, p, steady)
	if err != nil {
		return err
	}
	q1Checker(r, "open-loop", cfg.seed, keepReference)(lag)
	lagP99, _ := percentile(lag.sources.lags(), 0.99)
	r.set("nexmark.lag_p99_ms", lagP99)
	if err := reportLatency(r, [][]float64{q1Latencies(cfg.seed, steady.records, lag)}, lag.sources.lags()); err != nil {
		return err
	}

	reconfig.traced = true
	rc, err := rig.run(ctx, p, reconfig)
	if err != nil {
		return err
	}
	checkRestarts(rc)
	reconfigLayers(r, rc)

	if _, _, err := searchProbe(ctx, r, p.phys, rig.model, p.usage); err != nil {
		return err
	}
	return setupLayers(r, rig.spec.Graph, rig.spec.SourceRates)
}

// q1Latencies returns an open-loop job's window-result latencies. A window
// result is due when the first event whose event time reaches the window
// end was due; both source tasks share one event clock and one schedule.
// Results flushed at end of input have no such event.
//
// At this commit no Q1 window fires before the end of input: the
// map(4)->window(8) keyed exchange feeds each window task from one map task
// only, so its other channels' watermarks stay at -inf. Every result then
// arrives with the end-of-input flush, its latency is the flush time less
// its due time, and the p50 and p99 are set by the job's length and the
// generator's event clock whatever else the engine does. They start to
// measure the engine once windows fire on watermarks.
func q1Latencies(seed, perTask int64, job *phaseResult) []float64 {
	_, times := q1Stream(seed, 0, perTask)
	return recordLatencies(job, func(end int64) (int64, bool) {
		i := firstIndexAtOrAfter(times, end)
		return int64(i), i < len(times)
	})
}
