package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a two-vCPU guest on a shared host, and what the host's
// other tenants do decides how fast it runs: for minutes at a time everything
// here takes 1.2 to 1.5 times as long, a register-only loop as much as an
// HTTP request. Ten runs of an unscaled timing spread 11-26% ((Q3-Q1)/median)
// on every workload, and across runs each timing follows the loop's (r =
// 0.84-0.99, README.md has the data). So the harness measures the machine
// while it measures the program, and reports every time as it would have
// been at the machine's own uncontended speed.
//
// A monitor thread pinned to each CPU times a fixed register-only loop every
// monitorPeriod. A CPU's fastest loop of the run is that CPU uncontended; the
// machine's speed over an interval is fastest/duration of the loops timed in
// it, taken as one over the mean of duration/fastest. A time measured over
// the interval is multiplied by the speed, a rate divided by it. The loop
// touches no memory and calls nothing, so no change to the program under
// test can move it.
const (
	monitorPeriod = 20 * time.Millisecond
	monitorSpins  = 150_000 // about 0.2 ms on the reference box: 1% of a CPU
	// A loop that took longer than this many times the fastest was descheduled
	// midway; it says the CPU was busy, not how slow it was.
	monitorClip = 2.5
)

var monitorSink uint64

// spin is the timed loop: eight independent chains, so that it runs at the
// core's full issue width and slows down as soon as anything shares the core.
func spin(n int) uint64 {
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < n; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e << 13
		f ^= f >> 7
		g += g<<3 ^ uint64(i)
		h = h*31 + uint64(i)
	}
	return a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

// loopTime is one timed loop.
type loopTime struct {
	at time.Time
	d  time.Duration
}

// monitor times the loop on every CPU from start to stop.
type monitor struct {
	mu    sync.Mutex
	loops [][]loopTime // per monitor thread
	quit  chan struct{}
	wg    sync.WaitGroup
}

// allowedCPUs lists the CPUs this process may run on; nil when the platform
// cannot say.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

func startMonitor() *monitor {
	cpus := allowedCPUs()
	if cpus == nil { // unpinned threads still see most of what there is to see
		cpus = make([]int, runtime.NumCPU())
		for i := range cpus {
			cpus[i] = -1
		}
	}
	m := &monitor{loops: make([][]loopTime, len(cpus)), quit: make(chan struct{})}
	for i, cpu := range cpus {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			runtime.LockOSThread() // never unlocked: the pinned thread ends with the goroutine
			if cpu >= 0 {
				var mask [16]uint64
				mask[cpu/64] = 1 << (cpu % 64)
				// On failure the thread floats, which costs precision only.
				syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
			}
			tick := time.NewTicker(monitorPeriod)
			defer tick.Stop()
			for {
				t0 := time.Now()
				monitorSink += spin(monitorSpins)
				l := loopTime{t0, time.Since(t0)}
				m.mu.Lock()
				m.loops[i] = append(m.loops[i], l)
				m.mu.Unlock()
				select {
				case <-m.quit:
					return
				case <-tick.C:
				}
			}
		}()
	}
	return m
}

// stop ends the monitor threads; speed keeps answering from what they saw.
func (m *monitor) stop() {
	close(m.quit)
	m.wg.Wait()
}

// speed is the machine's speed over [from, to] as a share of its uncontended
// speed, and the number of loops behind it. An interval too short to hold a
// loop is judged by the whole run so far.
func (m *monitor) speed(from, to time.Time) (float64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, window := range []bool{true, false} {
		var sum float64
		n := 0
		for _, loops := range m.loops {
			if len(loops) == 0 {
				continue
			}
			fastest := loops[0].d
			for _, l := range loops {
				fastest = min(fastest, l.d)
			}
			for _, l := range loops {
				if window && (l.at.Before(from) || l.at.After(to)) {
					continue
				}
				sum += min(float64(l.d)/float64(fastest), monitorClip)
				n++
			}
		}
		if n > 0 {
			return float64(n) / sum, n
		}
	}
	return 1, 0
}
