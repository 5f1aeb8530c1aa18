package main

// The host a benchmark run gets is not the same from minute to minute:
// on a shared virtual machine the hypervisor takes busy virtual CPUs
// away for a while (steal), and the CPUs run slower while other
// tenants load the same cores. Both change the elapsed times of
// identical work by tens of percent. The corrections here take them
// out of the time metrics, so the metrics follow the program.

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuTicks is a reading of the machine-wide CPU time counters in
// /proc/stat, in clock ticks summed over all CPUs.
type cpuTicks struct {
	// busy is user + nice + system + irq + softirq time.
	busy int64
	// steal is time a virtual CPU wanted to run but the hypervisor
	// ran something else.
	steal int64
}

// readTicks reads /proc/stat; it returns zeros where the file or the
// steal column is missing, which leaves elapsed times uncorrected.
func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := make([]int64, 8)
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// unstolen is the part of an elapsed time ns, between readings a and
// b, that the machine's virtual CPUs were not stolen: ns scaled by
// 1 − steal/(busy + steal) over the interval: a thread on the
// critical path loses the same share of its time as the CPUs it runs
// on. On a machine that reports no steal this is ns.
func unstolen(ns int64, a, b cpuTicks) int64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if steal <= 0 || busy <= 0 {
		return ns
	}
	return int64(float64(ns) * float64(busy) / float64(busy+steal))
}

// calibrationLoops is the length of the calibration loop, and
// referenceLoopNs its thread CPU time on the reference box (2 vCPUs,
// Intel Xeon, go1.24.0) at a quiet time; it fixes the unit of the
// time metrics, seconds of that box.
const (
	calibrationLoops = 20_000_000
	referenceLoopNs  = 48e6
)

var calibrationSink int

// calibrate runs the calibration loop, a chain of dependent integer
// operations that touches no memory, and returns the thread CPU time
// it took in ns. Thread CPU time leaves out preemption and steal, so
// it measures only how fast the CPU ran the same instructions.
func calibrate() int64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNs()
	x := 1
	for i := 0; i < calibrationLoops; i++ {
		x = x*1103515245 + 12345
		x ^= x >> 7
	}
	calibrationSink += x
	return threadCPUNs() - t0
}

// threadCPUNs reads CLOCK_THREAD_CPUTIME_ID.
func threadCPUNs() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
