// Command perfbench is the repository's end-to-end benchmark. It drives the
// public APIs of controller, engine, nexmark, caps, simulator and
// statebackend from the outside, checks every workload's output, and prints
// one JSON result line last.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload q1win-reconfig --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off, at GOMAXPROCS=1, on the process's CPU clock and at a
// reference host speed (see endToEnd and calibrate.go). With --trace 1 a
// separate traced run breaks the workload down by layer; see layers.go for
// the catalogue and what each metric should move.
//
// Every workload walks one deployment through CAPSys's lifecycle — place,
// set up, run, reconfigure — so every end-to-end metric exists on every
// workload; the workloads differ in where the work lies:
//
//   - q1win-reconfig: Nexmark Q1-sliding on the batched in-memory transport
//     with checkpoints and a fixed schedule of live rescales and a crash.
//     State, snapshots and the restart lifecycle do the work; no codec runs
//     in its measured jobs.
//   - place-fig8: the paper's six-query joint placement on the 144-slot
//     cluster, then online reconfigurations: DS2's decisions under load
//     changes, re-placed by CAPS. Only controller, ds2, caps and simulator
//     run.
//
// A Q3-inf workload over the TCP transport was left out: on a shared
// 2-vCPU host its latency varied by more than half from run to run. Its
// layers, the wire codec and the network transport, are measured in the
// q1win-reconfig traced run.
//
// On a shared 2-vCPU host one engine job's figures differ from the next
// one's, so every measured phase runs as several jobs, batches or requests
// spread over the run (see endToEnd).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// budget returns share of the run's measuring time.
func (c config) budget(share float64) time.Duration {
	return time.Duration(share * float64(c.seconds) * float64(time.Second))
}

// report collects a run's metrics, output checks and notes.
type report struct {
	metrics map[string]float64
	// spans holds, for a metric measured in one phase of the run, the
	// host meter's marks at the phase's start and end.
	spans     map[string][2]int
	attempted int64
	failed    int64
	checks    []string
	notes     []string
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), spans: make(map[string][2]int)}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// hostSpan records that metric name was measured from host meter mark from
// to now; a metric without a span is scaled by the whole run's host speed.
func (r *report) hostSpan(name string, from int) {
	r.spans[name] = [2]int{from, host.mark()}
}

// check accounts one output check: attempted operations and how many of
// them failed.
func (r *report) check(name string, attempted, failed int64, detail string) {
	r.attempted += attempted
	r.failed += failed
	status := "ok"
	if failed > 0 {
		status = "FAILED"
	}
	r.checks = append(r.checks, fmt.Sprintf("%s: %s (%d attempted, %d failed) %s", name, status, attempted, failed, detail))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, cfg config, r *report) error

var workloads = map[string]workloadFunc{
	"q1win-reconfig": runQ1Win,
	"place-fig8":     runFig8,
}

// runDeadline bounds one invocation; past it the run fails rather than
// overrunning its caller's limit.
const runDeadline = 170 * time.Second

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// scaleToReferenceHost reports the run's host-dependent end-to-end metrics
// at the reference host speed (see calibrate.go).
func scaleToReferenceHost(r *report) error {
	var raw []string
	for _, m := range endToEnd {
		p, ok := hostSpeedPower[m.Name]
		if !ok {
			continue
		}
		span, ok := r.spans[m.Name]
		if !ok {
			span = [2]int{0, host.mark()}
		}
		unit, n := host.unitNS(span[0], span[1])
		if n < minCalibrationUnits {
			return fmt.Errorf("the host was timed only %d times while %s was measured, fewer than %d", n, m.Name, minCalibrationUnits)
		}
		raw = append(raw, fmt.Sprintf("%s %.6g (unit %.1f us over %d)", m.Name, r.metrics[m.Name], unit/1e3, n))
		r.metrics[m.Name] *= math.Pow(calibrationRefNS/unit, p)
	}
	r.note("host: scaled to a calibration unit of %.0f us; unscaled: %s", calibrationRefNS/1e3, strings.Join(raw, ", "))
	return nil
}

// minCalibrationUnits is the fewest calibration units a span must hold for
// their median to stand for the host's speed.
const minCalibrationUnits = 100

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: q1win-reconfig or place-fig8")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if !cfg.trace {
		// One P: the run's CPU time is then the work of one core, which
		// other processes on the host delay but do not add to.
		runtime.GOMAXPROCS(1)
		host = startHostMeter()
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(2)
	})
	defer watchdog.Stop()

	stamp := stampMachine(cfg.workload, cfg.seed, cfg.seconds, trace)
	r := newReport()
	err := fn(context.Background(), cfg, r)
	if host != nil {
		host.close()
	}
	if err != nil {
		return err
	}
	if host != nil {
		if err := scaleToReferenceHost(r); err != nil {
			return err
		}
	}
	r.set("process.peak_rss_mb", peakRSSMB())

	catalogue := endToEnd
	if cfg.trace {
		catalogue = perLayer
	}
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(catalogue)),
	}
	for _, m := range catalogue {
		v, ok := r.metrics[m.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, m.Name)
		}
		out.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operations", cfg.workload)
	}

	buf, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("machine %s\n", buf)
	for _, c := range r.checks {
		fmt.Println("check", c)
	}
	for _, n := range r.notes {
		fmt.Println("note", n)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "metric %-40s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Print(b.String())
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
