package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/bgp"
)

func encodeAll(t *testing.T, src Source, n int) []byte {
	t.Helper()
	var b []byte
	for k := 0; k < n; k++ {
		m, ok := src.Msg(k)
		if !ok {
			break
		}
		var err error
		if b, err = bgp.AppendMessage(b, m.Update); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func TestSameSeedSameMessageStream(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		a := encodeAll(t, newScheduleSource(seed, 0, liveBurstyPrefixes, 5000, 5*time.Second, true), 5000)
		b := encodeAll(t, newScheduleSource(seed, 0, liveBurstyPrefixes, 5000, 5*time.Second, true), 5000)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: open-loop message streams differ", seed)
		}
		if !bytes.Equal(encodeAll(t, newTableSource(seed, 1), 5000), encodeAll(t, newTableSource(seed, 1), 5000)) {
			t.Fatalf("seed %d: table streams differ", seed)
		}
		x, y := Arrivals(seed, 1000, time.Second), Arrivals(seed, 1000, time.Second)
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("seed %d: arrival %d differs", seed, i)
			}
		}
	}
	if bytes.Equal(encodeAll(t, newScheduleSource(1, 0, liveBurstyPrefixes, 500, time.Second, true), 500),
		encodeAll(t, newScheduleSource(2, 0, liveBurstyPrefixes, 500, time.Second, true), 500)) {
		t.Fatal("seeds 1 and 2 give the same stream")
	}
}

func TestArrivalRateWithinOnePercent(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		const n, window = 20000, 10 * time.Second
		ts := Arrivals(seed, n, window)
		inside := 0
		for _, at := range ts {
			if at >= 0 && at < window {
				inside++
			}
		}
		rate := float64(inside) / window.Seconds()
		if math.Abs(rate-n/window.Seconds()) > 0.01*n/window.Seconds() {
			t.Fatalf("seed %d: realised rate %.1f/s, target %.1f/s", seed, rate, n/window.Seconds())
		}
	}
}

// dispersion is the variance-to-mean ratio of arrival counts per bin.
func dispersion(ts []time.Duration, window, bin time.Duration) float64 {
	counts := make([]float64, int(window/bin))
	for _, at := range ts {
		if i := int(at / bin); i < len(counts) {
			counts[i]++
		}
	}
	var mean, v float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	for _, c := range counts {
		v += (c - mean) * (c - mean)
	}
	return v / float64(len(counts)) / mean
}

func TestArrivalsAreBurstyAtEveryScale(t *testing.T) {
	const window = 60 * time.Second
	ts := Arrivals(3, 120000, window)
	prev := 0.0
	for _, bin := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		d := dispersion(ts, window, bin)
		t.Logf("bin %v: index of dispersion %.2f", bin, d)
		if d <= prev {
			t.Fatalf("index of dispersion fell from %.2f to %.2f at bin %v: no long-memory bursts", prev, d, bin)
		}
		prev = d
	}
	if prev < 10 {
		t.Fatalf("index of dispersion at 1 s is %.2f; a Poisson stream gives 1", prev)
	}
}
