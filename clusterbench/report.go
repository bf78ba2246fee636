package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// report collects named metrics with their units and sample counts.
type report struct {
	vals  map[string]metricValue
	count map[string]int
	order []string
}

func newReport() *report {
	return &report{vals: map[string]metricValue{}, count: map[string]int{}}
}

// add records a metric measured over n samples.
func (r *report) add(name string, v float64, unit string, n int) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = metricValue{Value: v, Unit: unit}
	r.count[name] = n
}

// timing records the median and the 99th percentile of samples. It sorts
// xs in place.
func (r *report) timing(p50, p99, unit string, xs []float64) {
	r.add(p50, quantile(xs, 0.50), unit, len(xs))
	r.add(p99, quantile(xs, 0.99), unit, len(xs))
}

// ratio records num/den, or 0 when den is 0 (the layer did no work).
func (r *report) ratio(name string, num, den float64, unit string) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	r.add(name, v, unit, int(den))
}

// overhead records how much worse (in percent) the traced value of metric
// is than the untraced one.
func (r *report) overhead(base *report, metric, name string) {
	t, b := r.vals[metric].Value, base.vals[metric].Value
	v := 0.0
	if b > 0 {
		v = 100 * (t - b) / b
	}
	r.add(name, v, "%", r.count[metric])
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.vals[name]
		fmt.Printf("%-40s %12.4f %-8s n=%d\n", name, m.Value, m.Unit, r.count[name])
	}
}

// quantile returns the q-quantile of xs by nearest rank (0 for no
// samples). It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msSince(from, to time.Time) float64 { return ms(to.Sub(from)) }
