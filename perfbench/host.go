package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the envelope every result carries: what the numbers were
// measured on.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	// TimerGranularityUs is the median wall time of time.Sleep(50µs): the
	// finest wait a due-time pacer could express on this host.
	TimerGranularityUs float64 `json:"timer_granularity_us"`
}

func probeHost() hostInfo {
	return hostInfo{
		CPUs:               runtime.NumCPU(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Go:                 runtime.Version(),
		OS:                 runtime.GOOS,
		Arch:               runtime.GOARCH,
		Commit:             commit(),
		TimerGranularityUs: timerGranularity(),
	}
}

// commit names the source revision: PERFBENCH_COMMIT when the caller
// knows it (a plain source checkout carries no VCS metadata), else the
// revision the Go toolchain stamped into the binary, else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// timerGranularity measures how long a 50µs sleep really takes.
func timerGranularity() float64 {
	const n = 41
	ns := make([]int64, n)
	for i := range ns {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		ns[i] = time.Since(start).Nanoseconds()
	}
	return us(quantile(ns, 0.5))
}

// cpuTicks reads the machine-wide CPU time counters (Linux /proc/stat):
// ticks stolen by the hypervisor and ticks in total. ok is false where
// the counters are unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter reports the share of CPU time the hypervisor took from this
// machine between start and stop: noise from neighbours that no change to
// the program can explain.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

// pct is the stolen share in percent since start, or -1 when unknown.
func (m stealMeter) pct() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return -1
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
