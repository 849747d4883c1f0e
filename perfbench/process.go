package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// processUsage is a point-in-time reading (or, after since, a delta) of
// the process's CPU, GC CPU and heap allocation.
type processUsage struct {
	cpu        time.Duration
	gcCPU      float64 // seconds
	allocBytes uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readProcessUsage() processUsage {
	u := processUsage{cpu: cpuNow()}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[1].Value.Uint64()
	}
	return u
}

// since returns the usage between an earlier reading and u.
func (u processUsage) since(before processUsage) processUsage {
	return processUsage{
		cpu:        u.cpu - before.cpu,
		gcCPU:      u.gcCPU - before.gcCPU,
		allocBytes: u.allocBytes - before.allocBytes,
	}
}

// gcFrac is the share of the process's CPU time spent in the collector.
func (u processUsage) gcFrac() float64 {
	if u.cpu <= 0 {
		return 0
	}
	return u.gcCPU / u.cpu.Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	if kb, ok := procStatusKB("VmHWM:"); ok {
		return float64(kb) / 1024
	}
	return 0
}

func procStatusKB(field string) (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		parts := strings.Fields(line[len(field):])
		if len(parts) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(parts[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// machineStamp describes where a result was measured.
type machineStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func stampMachine(workload string, seed int64, seconds, trace int) machineStamp {
	return machineStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
