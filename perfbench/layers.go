package main

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from its untraced run (BENCHMARK.json fixes their
// bounds). The untraced run sets GOMAXPROCS to 1 and times work on the
// process's CPU clock (see cpuNow): on a shared host the wall clock moved
// by half between runs of the same code, the CPU time of a fixed piece of
// work much less. On an otherwise idle core the two agree. Each metric
// repeats its work across the run and takes a median, and is then
// reported at a reference host speed (see calibrate.go): the host
// alternates between fast and slow phases of seconds to minutes — the same
// 65 us placement decision took 55-65 us in one and 100-120 us in the
// other — and a median over one run only follows the share of the run
// spent in each.
//
//   - ops_per_cpu_s: operations completed per CPU second in an uncapped,
//     closed-loop phase — for q1win-reconfig source records, over its
//     throughput jobs; for place-fig8 DS2 reconfiguration requests
//     (decision and re-placement), one round of every distinct request.
//   - reconfig_cpu_ms: CPU time of a reconfiguration, the mean over the
//     distinct reconfigurations of each one's repetitions — for
//     q1win-reconfig its scheduled live rescales, each from the drain to
//     the resume, re-placement included (the crash's recovery is left out,
//     see reportDowntimes); for place-fig8, which runs no job, its
//     requests' re-placements.
//   - decision_cpu_s: CPU time of the initial placement decision
//     (auto-tune plus search; on place-fig8 also the simulator's scoring).
//     place-fig8's decision runs once: it spends its whole node budget,
//     about twenty seconds.
//   - plan_tput_frac: minimum over queries of simulated throughput over
//     target for the chosen plan; deterministic.
//   - setup_s: CPU time of everything before the first record is due or
//     before the search starts.
var endToEnd = []metricSpec{
	{"ops_per_cpu_s", "1/s"},
	{"reconfig_cpu_ms", "ms"},
	{"decision_cpu_s", "s"},
	{"plan_tput_frac", "ratio"},
	{"setup_s", "s"},
}

// hostSpeedPower says how each host-dependent end-to-end metric follows
// the host's speed when it is reported at the reference speed (see
// calibrate.go): a CPU time scales by the reference unit time over the
// measured one (power 1), a rate by its inverse (power -1).
var hostSpeedPower = map[string]float64{
	"ops_per_cpu_s":   -1,
	"reconfig_cpu_ms": 1,
	"decision_cpu_s":  1,
	"setup_s":         1,
}

// tracedOps are the operators whose per-operator engine metrics are
// reported; an operator a workload does not run reports zero.
var tracedOps = []string{"src", "map", "slide-win", "sink"}

// perLayer is the traced run's breakdown. Every traced run reports every
// metric; a layer that does no work in a workload reports zero. What each
// should move:
//
//   - nexmark.*: generator cost and open-loop lag (a validity check for the
//     latency metrics) → ops_per_cpu_s on q1win-reconfig; none on
//     place-fig8.
//   - latency_p50_ms, latency_p99_ms: the traced run's open-loop job at a
//     fixed rate, from each window's due time (the due time of the first
//     event whose event time reaches the window end) to its result's sink
//     arrival; zero on place-fig8. Wall-clock and not gated: on
//     q1win-reconfig every window result currently arrives in the
//     end-of-input flush, so they follow the job's length rather than the
//     engine (see q1Latencies).
//   - engine.<op>.*: self time (Process minus emit), records, busy and
//     backpressure shares → ops_per_cpu_s on the workload where that
//     operator is busy while its upstream is blocked.
//   - engine.emit_ns, engine.exchange.* → ops_per_cpu_s and
//     latency_p99_ms on q1win-reconfig.
//   - engine.net.*, engine.codec.*: from the traced run's job over the TCP
//     network transport; no gated workload runs the codec, so a codec
//     change is predicted to leave every end-to-end metric unchanged.
//   - process.* → ops_per_cpu_s on q1win-reconfig and decision_cpu_s on
//     place-fig8.
//   - engine.checkpoint.*, engine.recovery.*, engine.rescale.*,
//     engine.reprocessed_records, statebackend.*, controller.replace_ms →
//     reconfig_cpu_ms and ops_per_cpu_s on q1win-reconfig.
//   - caps.*, simulator.evaluate_ms → decision_cpu_s on place-fig8 (caps.* also
//     its ops_per_cpu_s and reconfig_cpu_ms); plan_tput_frac must not
//     move. controller.replace_ms is the median re-placement in CPU
//     milliseconds; on place-fig8, over its distinct requests.
//   - dataflow.expand_ms, costmodel.usage_ms → setup_s.
//   - telemetry.overhead_frac: throughput lost to tracing, traced against
//     untraced in the same process (zero on place-fig8, where no tracer
//     runs); trace.coverage: share of process CPU (engine) or decision
//     time (placement) the self times explain.
//   - engine.gomaxprocs1_rps: the throughput phase rerun at GOMAXPROCS=1,
//     a single-core reference that is not gated.
//   - process.peak_rss_mb: VmHWM of the traced process. It is not an
//     end-to-end metric: with the collector's pacing it varied by a quarter
//     between runs of one workload, more than any bound can gate.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	out := []metricSpec{
		{"nexmark.next_ns", "ns"},
		{"nexmark.lag_p99_ms", "ms"},
		{"latency_p50_ms", "ms"},
		{"latency_p99_ms", "ms"},
	}
	for _, op := range tracedOps {
		p := "engine." + op + "."
		out = append(out,
			metricSpec{p + "self_ns", "ns"},
			metricSpec{p + "records_in", "count"},
			metricSpec{p + "records_out", "count"},
			metricSpec{p + "busy_frac", "ratio"},
			metricSpec{p + "bp_frac", "ratio"},
		)
	}
	return append(out,
		metricSpec{"engine.emit_ns", "ns"},
		metricSpec{"engine.exchange.batch_mean", "count"},
		metricSpec{"engine.exchange.credit_stall_frac", "ratio"},
		metricSpec{"engine.net.bytes_per_rec", "B"},
		metricSpec{"engine.net.frames_per_rec", "count"},
		metricSpec{"engine.net.credit_wait_p99_us", "us"},
		metricSpec{"engine.codec.encode_ns_per_rec", "ns"},
		metricSpec{"engine.codec.decode_ns_per_rec", "ns"},
		metricSpec{"engine.codec.bytes_per_rec", "B"},
		metricSpec{"process.alloc_bytes_per_rec", "B"},
		metricSpec{"process.gc_cpu_frac", "ratio"},
		metricSpec{"engine.checkpoint.count", "count"},
		metricSpec{"engine.checkpoint.p50_ms", "ms"},
		metricSpec{"engine.recovery.downtime_ms", "ms"},
		metricSpec{"engine.rescale.downtime_ms", "ms"},
		metricSpec{"engine.reprocessed_records", "count"},
		metricSpec{"engine.rescale.moved_bytes", "B"},
		metricSpec{"statebackend.snapshot_ms_per_mb", "ms/MB"},
		metricSpec{"statebackend.restore_ms_per_mb", "ms/MB"},
		metricSpec{"statebackend.repartition_ms_per_mb", "ms/MB"},
		metricSpec{"statebackend.writes_per_rec", "count"},
		metricSpec{"statebackend.bytes_peak", "B"},
		metricSpec{"controller.replace_ms", "ms"},
		metricSpec{"caps.autotune_s", "s"},
		metricSpec{"caps.search_s", "s"},
		metricSpec{"caps.nodes", "count"},
		metricSpec{"caps.cost_evals", "count"},
		metricSpec{"caps.plans", "count"},
		metricSpec{"caps.memo_prunes", "count"},
		metricSpec{"caps.budget_prunes", "count"},
		metricSpec{"caps.ns_per_node", "ns"},
		metricSpec{"caps.plans_per_node", "ratio"},
		metricSpec{"caps.alloc_bytes_per_node", "B"},
		metricSpec{"simulator.evaluate_ms", "ms"},
		metricSpec{"dataflow.expand_ms", "ms"},
		metricSpec{"costmodel.usage_ms", "ms"},
		metricSpec{"telemetry.overhead_frac", "ratio"},
		metricSpec{"trace.coverage", "ratio"},
		metricSpec{"engine.gomaxprocs1_rps", "1/s"},
		metricSpec{"process.peak_rss_mb", "MB"},
	)
}
