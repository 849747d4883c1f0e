package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// On a shared host the CPU time of a fixed piece of Go code moves by a
// fifth or more over minutes: other tenants share the core's caches and
// execution units, and the host alternates between fast and slow phases.
// The untraced run therefore times the host alongside the program: a
// calibration goroutine runs a fixed unit of work (calibrationUnit) every
// calibrationPeriod, sharing the process's one P with the workload, and the
// end-to-end times are reported at a reference host speed — scaled by
// calibrationRefNS over the unit's median CPU time while the metric was
// measured (see report.hostSpan). The unit allocates nothing, so the
// collector's work, which follows the workload's allocation, never lands
// on it and a change that allocates less is not scaled away. Its CPU time
// is taken out of every measurement (see cpuNow).

// calibrationRefNS is the reference speed: about the calibration unit's
// median CPU time on an Intel Xeon (2 vCPUs, KVM guest) with a workload
// sharing the core.
const calibrationRefNS = 300_000

const (
	calibrationPeriod = 20 * time.Millisecond
	// The unit's hash table fills a core's share of the second-level
	// cache, like the searches' and the engine's hot state.
	calibrationSlots = 1 << 15
	calibrationKeys  = 8192
	calibrationSort  = 1024
)

// hostMeter is the running calibration goroutine.
type hostMeter struct {
	// spent is the calibration goroutine's CPU time so far.
	spent atomic.Int64
	stop  chan struct{}
	done  sync.WaitGroup
	keys  []uint64
	vals  []uint32
	xs    []uint32
	mu    sync.Mutex
	units []float64 // CPU nanoseconds of each unit
}

// host is the untraced run's meter; nil in a traced run.
var host *hostMeter

func startHostMeter() *hostMeter {
	h := &hostMeter{
		stop: make(chan struct{}),
		keys: make([]uint64, calibrationSlots),
		vals: make([]uint32, calibrationSlots),
		xs:   make([]uint32, calibrationSort),
	}
	h.done.Add(1)
	go h.run()
	return h
}

func (h *hostMeter) run() {
	defer h.done.Done()
	// Locked to its own thread, the goroutine's units are timed on that
	// thread's CPU clock, which stops while the workload holds the P.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(calibrationPeriod)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		t0 := threadCPUNow()
		h.calibrationUnit()
		d := threadCPUNow() - t0
		h.spent.Add(int64(d))
		h.mu.Lock()
		h.units = append(h.units, float64(d))
		h.mu.Unlock()
	}
}

// calibrationUnit is the fixed work the host is timed with: inserts of
// pseudo-random keys into an open-addressed hash table, then a sort of
// pseudo-random values — branchy work on cache-resident data, as the
// placement searches and the engine's operators do.
func (h *hostMeter) calibrationUnit() {
	clear(h.keys)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < calibrationKeys; i++ {
		k := next() | 1
		j := (k * 0x9E3779B97F4A7C15) >> 49 // top 15 bits: a slot
		for h.keys[j] != 0 && h.keys[j] != k {
			j = (j + 1) & (calibrationSlots - 1)
		}
		h.keys[j] = k
		h.vals[j]++
	}
	for i := range h.xs {
		h.xs[i] = uint32(next())
	}
	sort.Slice(h.xs, func(a, b int) bool { return h.xs[a] < h.xs[b] })
}

// close stops the calibration goroutine and waits for it to end.
func (h *hostMeter) close() {
	close(h.stop)
	h.done.Wait()
}

// mark returns the number of units timed so far, the start or end of a
// span (see unitNS); 0 when no meter runs.
func (h *hostMeter) mark() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.units)
}

// unitNS returns the median CPU time of the calibration units timed
// between marks from and to, and how many there were.
func (h *hostMeter) unitNS(from, to int) (float64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	to = min(to, len(h.units))
	span := h.units[min(from, to):to]
	return median(span), len(span)
}

// cpuNow is the CPU time the process has spent on the workload so far:
// all threads, user and system, to the nanosecond, less the calibration
// goroutine's. Time the hypervisor steals and time slices other processes
// take are not in it.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	d := clockNow(clockProcessCPUTimeID)
	if host != nil {
		d -= time.Duration(host.spent.Load())
	}
	return d
}

func threadCPUNow() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	return clockNow(clockThreadCPUTimeID)
}

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
