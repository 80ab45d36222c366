package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// errThinTail is returned for a tail percentile that fewer than ten
// samples lie beyond: such a figure is one or two outliers, not a tail.
var errThinTail = errors.New("fewer than ten samples beyond the percentile")

// percentile returns the q-quantile of samples by nearest rank. For q
// above the median it refuses unless at least ten samples lie beyond the
// chosen rank, so a p99 needs 1000 samples.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, errors.New("no samples")
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < 10 {
		return 0, fmt.Errorf("p%g of %d samples: %w", 100*q, n, errThinTail)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailMean returns the mean of the samples above the q-quantile, the
// slowest (1-q) share; like percentile it needs ten of them.
func tailMean(samples []float64, q float64) (float64, error) {
	if _, err := percentile(samples, q); err != nil {
		return 0, err
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	return mean(s[rank:]), nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentSet returns the process's resident set size (VmRSS).
func residentSet() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

// machineStamp names what the figures were measured on, so figures from
// different machines are never compared.
func machineStamp() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d go=%s cpu=%q",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), model)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects figures by name; names are kept in insertion order
// for the human-readable report.
type metrics struct {
	order []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: make(map[string]metric)} }

func (ms *metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// per divides, reporting 0 for an empty denominator.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return per(sum, float64(len(xs)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
