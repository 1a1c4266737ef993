package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// environment is recorded in every results file so two files can be judged
// comparable before their numbers are.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
}

func readEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), GitSHA: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return env
}

// rssMB reads a process's resident set size ("self" or a pid) from /proc; 0
// when the platform has no /proc.
func rssMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// watchRSS samples a process's RSS every 20 ms until stop is called, which
// returns the sustained level: the 95th percentile of the samples (hence the
// metric's name, rss_p95_mb). It is not the kernel's high-water mark: VmHWM
// includes set-up, whose transients (the interpreter gate, bulk loading) are
// larger than the window's memory and vary more from run to run, and
// resetting it means writing to /proc/PID/clear_refs, outside the checkout.
// The plain maximum of the samples catches a 20 ms spike in one run and
// misses it in the next. An allocation that stays for less than a twentieth
// of the window is therefore invisible here; engine.alloc_mb counts it.
func watchRSS(pid string) (stop func() float64) {
	done, level := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		samples := []float64{rssMB(pid)}
		for {
			select {
			case <-tick.C:
				samples = append(samples, rssMB(pid))
			case <-done:
				level <- percentile(samples, 95)
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-level
	}
}
