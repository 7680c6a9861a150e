package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition: sample value by series, where a
// series is the metric name plus its label set exactly as exposed
// ("name" or `name{a="x",b="y"}`).
type scrape map[string]float64

// parseMetrics reads the Prometheus text format.  Comments and blank
// lines are skipped; a sample line is `series value [timestamp]`.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so split after the label set.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	return out, sc.Err()
}

func fetchMetrics(base string) (scrape, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// sub returns the per-series difference after - before (a series
// missing before counts from zero).
func (after scrape) sub(before scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add sums two scrapes series by series (several processes of a fleet).
func (a scrape) add(b scrape) scrape {
	out := make(scrape, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// get returns one series, zero when absent.
func (s scrape) get(series string) float64 { return s[series] }

// sum adds every series of a metric name whose labels contain all the
// given label pairs (`route="GET /x"`).
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		if !seriesOf(k, name) {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(k, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

func seriesOf(series, name string) bool {
	return series == name || strings.HasPrefix(series, name+"{")
}

// histMean is a histogram's mean observation over the scrape (use on a
// delta to get the mean within a window), and its count.
func (s scrape) histMean(name string, labels ...string) (mean, count float64) {
	sum := s.sum(name+"_sum", labels...)
	count = s.sum(name+"_count", labels...)
	if count == 0 {
		return 0, 0
	}
	return sum / count, count
}

// ratio returns num/den, or 0 when den is 0: the per-layer metrics are
// rates of work the workload may not do at all.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// minBeyond is how many samples must lie above a percentile for it to
// be reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted samples and
// whether it counts: at least minBeyond samples must lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// sample is one correct operation of the measured window.
type sample struct {
	class opClass
	end   float64 // seconds from the window's start
	ms    float64 // client latency
}

// sliceStat summarises one sub-window.
type sliceStat struct {
	throughput float64 // correct operations per second
	p50        float64 // primary-class latency, ms
}

// The window is cut into equal sub-windows of at least a second, each
// expected to hold sliceSamples primary operations, and throughput and
// p50 are medians over them.  Load from outside the benchmark comes in
// bursts shorter than a second on a shared machine; a burst then moves
// one sub-window, not the reported figure.
const sliceSamples = 25 * minBeyond

func sliceStats(samples []sample, primary opClass, window float64) []sliceStat {
	n := 0
	for _, s := range samples {
		if s.class == primary {
			n++
		}
	}
	k := n / sliceSamples
	if k > int(window) {
		k = int(window)
	}
	if k < 1 {
		k = 1
	}
	width := window / float64(k)
	lat := make([][]float64, k)
	ops := make([]int, k)
	for _, s := range samples {
		i := int(s.end / width)
		if i >= k {
			i = k - 1 // the operation in flight when the window closed
		}
		ops[i]++
		if s.class == primary {
			lat[i] = append(lat[i], s.ms)
		}
	}
	out := make([]sliceStat, k)
	for i := range out {
		sort.Float64s(lat[i])
		out[i].throughput = float64(ops[i]) / width
		out[i].p50, _ = percentile(lat[i], 0.50)
	}
	return out
}

// sliceMedian is the median of one figure over the sub-windows.
func sliceMedian(sl []sliceStat, f func(sliceStat) float64) float64 {
	xs := make([]float64, len(sl))
	for i, s := range sl {
		xs[i] = f(s)
	}
	return median(xs)
}
