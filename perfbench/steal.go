package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor takes CPU time from the
// guest ("steal"), and the program slows by far more than the stolen share
// while it lasts. The benchmark reads the host's steal counter for every
// measurement unit — a one-second slice of a timed phase, a setup, a
// replay — and takes its statistics over the units whose steal was at
// most maxSteal, measuring up to half as long again (maxStretch) to make up
// for the units it drops. When more than half the units of a run had more,
// it takes the calmest third and marks the run invalid.
const maxSteal = 0.05

// maxStretch is the factor by which a phase may outrun its planned length
// to collect units free of steal.
const maxStretch = 1.5

// minCleanUnits is the fewest clean replays a replay-spill run waits for.
const minCleanUnits = 3

// cpuTicks is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuTicks struct{ steal, total int64 }

func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of CPU time stolen between two readings.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// counted marks the units a statistic is taken over: those whose steal
// was at most maxSteal or, when that leaves fewer than half, the calmest
// third of them. clean is false in the second case.
func counted(steal []float64) (keep []bool, clean bool) {
	sorted := append([]float64(nil), steal...)
	limit := maxSteal
	clean = median(sorted) <= maxSteal
	if !clean {
		limit = max(limit, quantile(sorted, 1.0/3))
	}
	keep = make([]bool, len(steal))
	for i, s := range steal {
		keep[i] = s <= limit
	}
	return keep, clean
}

// keepCounted returns the values of the counted units.
func keepCounted(vals, steal []float64) (out []float64, clean bool) {
	keep, clean := counted(steal)
	for i, v := range vals {
		if keep[i] {
			out = append(out, v)
		}
	}
	return out, clean
}

// slicer cuts a timed phase into one-second slices, records the steal and
// the daemon's CPU time in each, and ends the phase once it has `want`
// slices with steal at most maxSteal or has run `limit`.
type slicer struct {
	mu    sync.Mutex
	steal []float64
	cpu   []time.Duration // daemon CPU time per slice
	end   time.Duration   // phase end, once decided
	done  chan struct{}

	// Set by wait: which slices the statistics count.
	keep  []bool
	clean bool
}

func startSlicer(t0 time.Time, pid, want int, limit time.Duration) *slicer {
	s := &slicer{end: -1, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		prev := readTicks()
		prevCPU, _ := sampleProc(pid)
		good := 0
		for k := 1; ; k++ {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * time.Second)))
			now := readTicks()
			nowCPU, _ := sampleProc(pid)
			steal := stealShare(prev, now)
			if steal <= maxSteal {
				good++
			}
			s.mu.Lock()
			s.steal = append(s.steal, steal)
			s.cpu = append(s.cpu, nowCPU.cpu-prevCPU.cpu)
			if good >= want || time.Duration(k)*time.Second >= limit {
				s.end = time.Duration(k) * time.Second
			}
			end := s.end
			s.mu.Unlock()
			if end >= 0 {
				return
			}
			prev, prevCPU = now, nowCPU
		}
	}()
	return s
}

// over reports whether the phase has ended by offset at.
func (s *slicer) over(at time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end >= 0 && at >= s.end
}

// wait blocks until the phase has ended and decides which slices count.
func (s *slicer) wait() {
	<-s.done
	s.keep, s.clean = counted(s.steal)
}

// counts reports whether offset at falls in a slice the statistics count.
func (s *slicer) counts(at time.Duration) bool {
	k := int(at / time.Second)
	return k >= 0 && k < len(s.keep) && s.keep[k]
}

// cleanCount is the number of slices with steal at most maxSteal.
func (s *slicer) cleanCount() int {
	n := 0
	for _, v := range s.steal {
		if v <= maxSteal {
			n++
		}
	}
	return n
}
