package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// width is the one logical width of the benchmark: 2 HTTP connections,
// 2 engine sessions, 2 replicas, intra-op 2, inter-op 2 — so sessions,
// leases, helper hand-off, the ready queue and the all-reduce are all
// on the measured path.
const width = 2

// procs is GOMAXPROCS: the widths above are time-sliced over ONE
// processor. The issue sized the run for a host with two real cores;
// the reference host's two vCPUs deliver anywhere between one and two
// cores' worth of work from minute to minute (README, "Host findings"),
// which moved every width-2 number by 25–60% with no code change. On
// one processor the same runs repeat within a few percent, and a code
// change shows as CPU work saved, which is what a one-core run measures.
// What is given up is parallel speed-up, which this host cannot show.
const procs = 1

// requireHost pins the scheduler to procs and refuses a host that has
// fewer usable CPUs than that (ROADMAP 1b: refuse, don't record).
func requireHost() error {
	if n := runtime.NumCPU(); n < procs {
		return fmt.Errorf("host has %d usable CPU(s); the benchmark needs %d", n, procs)
	}
	runtime.GOMAXPROCS(procs)
	return nil
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// goStats is the slice of runtime.MemStats the cross-cutting go.*
// metrics are deltas of.
type goStats struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPause             time.Duration
	heapInuse           uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
		heapInuse:  m.HeapInuse,
	}
}
