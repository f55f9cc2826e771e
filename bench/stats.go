package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation of a measured phase. at is its start as an
// offset from the start of the phase.
type sample struct {
	at  time.Duration
	dur time.Duration
	aux bool // the workload's secondary operation (proof read, join)
}

// window is one slice of a measured phase. Timings are reported as the
// median over the windows of a phase, so that a stall moves one window and
// not the reported number, and each window's timings are divided by the
// machine's slowdown while it ran (ref.go), so that a slow stretch of the
// host does not move it either.
type window struct {
	start, end time.Duration
	cpu        time.Duration // process CPU (user+sys) spent inside the window
	slow       float64       // the machine's slowdown over the window; 0: not measured, report raw times
}

// rawWindows returns the windows without their slowdowns: summarized, they
// give the times as the clock read them.
func rawWindows(wins []window) []window {
	raw := append([]window(nil), wins...)
	for i := range raw {
		raw[i].slow = 0
	}
	return raw
}

// equalWindows cuts [0, total) into n windows of equal length.
func equalWindows(total time.Duration, n int) []window {
	wins := make([]window, n)
	for i := range wins {
		wins[i].start = total * time.Duration(i) / time.Duration(n)
		wins[i].end = total * time.Duration(i+1) / time.Duration(n)
	}
	return wins
}

// summary is what one measured phase reports: each field is the median of
// the per-window values, n and nAux are the sample counts over the phase.
type summary struct {
	p50ms, p99ms float64
	perSec       float64
	auxP50ms     float64
	cpuMsPerOp   float64
	n, nAux      int
	rates        []float64 // per window, for the run's log
}

// summarize reduces the samples of a phase to its summary. A sample belongs
// to the window its start falls in; its completion counts toward that
// window's rate.
func summarize(samples []sample, wins []window) summary {
	var s summary
	var p50s, p99s, rates, auxs, cpus []float64
	for _, w := range wins {
		slow := w.slow
		if slow == 0 {
			slow = 1
		}
		var prim, aux []float64
		for _, sm := range samples {
			if sm.at < w.start || sm.at >= w.end {
				continue
			}
			if sm.aux {
				aux = append(aux, ms(sm.dur))
			} else {
				prim = append(prim, ms(sm.dur))
			}
		}
		s.n += len(prim)
		s.nAux += len(aux)
		if len(prim) > 0 {
			sort.Float64s(prim)
			p50s = append(p50s, percentile(prim, 50)/slow)
			p99s = append(p99s, percentile(prim, 99)/slow)
			rates = append(rates, float64(len(prim)+len(aux))/(w.end-w.start).Seconds()*slow)
			cpus = append(cpus, ms(w.cpu)/float64(len(prim)+len(aux))/slow)
		}
		if len(aux) > 0 {
			sort.Float64s(aux)
			auxs = append(auxs, percentile(aux, 50)/slow)
		}
	}
	s.p50ms, s.p99ms, s.perSec = median(p50s), median(p99s), median(rates)
	s.auxP50ms, s.cpuMsPerOp = median(auxs), median(cpus)
	s.rates = rates
	return s
}

// logRaw logs a measured phase as the clock read it, and the slowdown each
// window was divided by.
func logRaw(workload string, samples []sample, wins []window) {
	raw := summarize(samples, rawWindows(wins))
	var slows []float64
	for _, w := range wins {
		slows = append(slows, w.slow)
	}
	logf("%s: as the clock read it: p50 %.4g ms, %.4g ops/s, cpu %.4g ms/op; ops/s per window %.4g; slowdown per window %.2f",
		workload, raw.p50ms, raw.perSec, raw.cpuMsPerOp, raw.rates, slows)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile reads the nearest-rank p-th percentile (0 < p <= 100) from
// ascending values; 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle value (the mean of the two middle ones for an
// even count); 0 when there are none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so that spreads
// computed here match the ones the acceptance procedure computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs((q3 - q1) / m)
}
