package main

import (
	"math"
	"testing"
	"time"

	"capsys/internal/telemetry"
)

func TestRescaleCPUDowntimesPairsTheTriggeringCheckpoint(t *testing.T) {
	ev := func(seq int64, kind string, tms float64, attrs map[string]any) telemetry.Event {
		return telemetry.Event{Seq: seq, Kind: kind, TMS: tms, Attrs: attrs}
	}
	events := []telemetry.Event{
		ev(0, telemetry.EventCheckpointComplete, 100, nil),
		ev(1, telemetry.EventCheckpointComplete, 200, nil), // triggers the first rescale
		ev(2, telemetry.EventCheckpointStart, 201, nil),
		ev(3, telemetry.EventRescaleStart, 230, nil),
		ev(4, telemetry.EventRescaleComplete, 250, map[string]any{"downtime_ms": 49.99}),
		ev(5, telemetry.EventCheckpointComplete, 400, nil), // triggers the second
		ev(6, telemetry.EventCheckpointComplete, 402, nil), // lands during its drain
		ev(7, telemetry.EventRescaleStart, 410, nil),
		ev(8, telemetry.EventRescaleComplete, 420, map[string]any{"downtime_ms": 20.0}),
	}
	cpu := []time.Duration{0, 10e6, 11e6, 30e6, 45e6, 60e6, 61e6, 70e6, 72e6}
	cpuAt := func(seq int64) (time.Duration, bool) {
		if seq < 0 || seq >= int64(len(cpu)) {
			return 0, false
		}
		return cpu[seq], true
	}
	got, err := rescaleCPUDowntimes(events, cpuAt)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{35, 12}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("rescale %d: got %g CPU-ms, want %g", i, got[i], want[i])
		}
	}

	if _, err := rescaleCPUDowntimes(events[2:5], cpuAt); err == nil {
		t.Error("a rescale with no checkpoint before it was paired")
	}
	noAttr := append([]telemetry.Event(nil), events[:4]...)
	noAttr = append(noAttr, ev(4, telemetry.EventRescaleComplete, 250, nil))
	if _, err := rescaleCPUDowntimes(noAttr, cpuAt); err == nil {
		t.Error("a rescale without its downtime was accepted")
	}
}

func TestCPUStampsIndexBySequence(t *testing.T) {
	var c cpuStamps
	for i := 0; i < 3; i++ {
		if n, err := c.Write([]byte("{}\n")); n != 3 || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	prev := time.Duration(-1)
	for seq := int64(0); seq < 3; seq++ {
		at, ok := c.of(seq)
		if !ok || at < prev {
			t.Fatalf("of(%d) = %v, %v after %v", seq, at, ok, prev)
		}
		prev = at
	}
	if _, ok := c.of(3); ok {
		t.Error("of(3) found a stamp that was never written")
	}
}

func TestHostScalingUsesEachMetricsSpan(t *testing.T) {
	saved := host
	defer func() { host = saved }()
	h := &hostMeter{}
	for i := 0; i < 2*minCalibrationUnits; i++ {
		u := float64(calibrationRefNS) // first half at the reference speed
		if i >= minCalibrationUnits {
			u *= 2 // second half on a host twice as slow
		}
		h.units = append(h.units, u)
	}
	host = h

	r := newReport()
	r.set("decision_cpu_s", 10)
	r.spans["decision_cpu_s"] = [2]int{0, minCalibrationUnits}
	r.set("ops_per_cpu_s", 100)
	r.spans["ops_per_cpu_s"] = [2]int{minCalibrationUnits, 2 * minCalibrationUnits}
	r.set("reconfig_cpu_ms", 4)
	r.spans["reconfig_cpu_ms"] = [2]int{minCalibrationUnits, 2 * minCalibrationUnits}
	r.set("setup_s", 1) // no span: the whole run
	r.set("plan_tput_frac", 0.9)
	if err := scaleToReferenceHost(r); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"decision_cpu_s":  10,      // measured at the reference speed
		"ops_per_cpu_s":   200,     // a rate measured at half speed doubles
		"reconfig_cpu_ms": 2,       // a time measured at half speed halves
		"setup_s":         2.0 / 3, // the whole run's median unit is 1.5x
		"plan_tput_frac":  0.9,     // not host-dependent
	} {
		if got := r.metrics[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}

	r.spans["decision_cpu_s"] = [2]int{0, minCalibrationUnits - 1}
	if err := scaleToReferenceHost(r); err == nil {
		t.Error("a span with too few calibration units was scaled")
	}
}

func TestHostMeterTimesUnitsUntilClosed(t *testing.T) {
	saved := host
	defer func() { host = saved }()
	host = startHostMeter()
	c0 := cpuNow()
	deadline := time.Now().Add(5 * time.Second)
	for host.mark() < 3 && time.Now().Before(deadline) {
		time.Sleep(calibrationPeriod)
	}
	host.close()
	n := host.mark()
	if n < 3 {
		t.Fatalf("%d calibration units in 5 s", n)
	}
	if unit, m := host.unitNS(0, n); m != n || unit <= 0 {
		t.Errorf("unitNS = %g over %d units, want a positive median over %d", unit, m, n)
	}
	if d := cpuNow() - c0; d < 0 {
		t.Errorf("the workload's CPU clock went back by %v", -d)
	}
	time.Sleep(3 * calibrationPeriod)
	if host.mark() != n {
		t.Error("the meter timed units after it was closed")
	}
}
