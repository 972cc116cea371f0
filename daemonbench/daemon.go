package main

// The system under test at its process boundary: gill-daemon started as
// an operator would, its admin plane scraped over loopback HTTP, its CPU
// and memory read from /proc.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Target is where the load goes: a BGP listener plus an admin plane. Both
// the gill-daemon process and the traced in-process assembly are Targets.
type Target struct {
	BGPAddr   string
	AdminAddr string
	Client    *http.Client
}

func (t *Target) url(path string) string { return "http://" + t.AdminAddr + path }

func (t *Target) get(path string) ([]byte, error) {
	resp, err := t.Client.Get(t.url(path))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return body, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// Progress is the slice of /statusz the benchmark reads: the daemon's
// verdict counters.
type Progress struct {
	Filtered, Written, Lost, Rejected uint64
}

// Terminal counts updates that reached a final pipeline verdict.
func (p Progress) Terminal() uint64 { return p.Written + p.Filtered + p.Lost + p.Rejected }

func (t *Target) Progress() (Progress, error) {
	body, err := t.get("/statusz")
	if err != nil {
		return Progress{}, err
	}
	var s struct {
		Status struct {
			Stats Progress `json:"stats"`
		} `json:"status"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return Progress{}, fmt.Errorf("statusz: %w", err)
	}
	return s.Status.Stats, nil
}

// Flow is the pipeline's progress as /metrics counts it.
type Flow struct {
	In       uint64 // updates handed to the pipeline
	Terminal uint64 // out of the last stage, dropped by the filter, or dropped on overflow
	Queued   uint64
}

// Flow reads the pipeline counters from /metrics. The benchmark polls
// this rather than /statusz, whose handler also runs a full data-quality
// audit on every request.
func (t *Target) Flow() (Flow, error) {
	body, err := t.get("/metrics")
	if err != nil {
		return Flow{}, err
	}
	var in, out, fin, fout, drop, queued uint64
	for _, line := range bytes.Split(body, []byte("\n")) {
		name, val, ok := bytes.Cut(line, []byte(" "))
		if !ok {
			continue
		}
		var dst *uint64
		switch string(name) {
		case "daemon_pipeline_in":
			dst = &in
		case "daemon_pipeline_out":
			dst = &out
		case "daemon_pipeline_stage_filter_in":
			dst = &fin
		case "daemon_pipeline_stage_filter_out":
			dst = &fout
		case "daemon_pipeline_dropped":
			dst = &drop
		case "daemon_pipeline_queue_depth":
			dst = &queued
		default:
			continue
		}
		if *dst, err = strconv.ParseUint(string(val), 10, 64); err != nil {
			return Flow{}, fmt.Errorf("metrics: %s: %w", name, err)
		}
	}
	return Flow{In: in, Terminal: out + fin - fout + drop, Queued: queued}, nil
}

// Scrape is one parse of /metrics: counters and gauges by name, and
// histograms as cumulative buckets.
type Scrape struct {
	Values map[string]float64
	Hists  map[string]*metrics.HistogramSnapshot
}

var bucketRE = regexp.MustCompile(`^([a-zA-Z0-9_:]+)_bucket\{le="([^"]+)"\} (\d+)$`)

func (t *Target) Scrape() (*Scrape, error) {
	body, err := t.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(body)), nil
}

func parseProm(text string) *Scrape {
	s := &Scrape{Values: map[string]float64{}, Hists: map[string]*metrics.HistogramSnapshot{}}
	hist := func(name string) *metrics.HistogramSnapshot {
		h := s.Hists[name]
		if h == nil {
			h = &metrics.HistogramSnapshot{}
			s.Hists[name] = h
		}
		return h
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if m := bucketRE.FindStringSubmatch(line); m != nil {
			h := hist(m[1])
			cum, _ := strconv.ParseUint(m[3], 10, 64)
			if m[2] == "+Inf" {
				continue // equals _count
			}
			le, _ := strconv.ParseUint(m[2], 10, 64)
			h.Bounds = append(h.Bounds, le)
			h.Counts = append(h.Counts, cum) // cumulative until finish
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(name, "_sum") && s.Hists[strings.TrimSuffix(name, "_sum")] != nil:
			s.Hists[strings.TrimSuffix(name, "_sum")].Sum = uint64(v)
		case strings.HasSuffix(name, "_count") && s.Hists[strings.TrimSuffix(name, "_count")] != nil:
			s.Hists[strings.TrimSuffix(name, "_count")].Count = uint64(v)
		default:
			s.Values[name] = v
		}
	}
	return s
}

// Delta returns counter b−a (0 when absent).
func Delta(a, b *Scrape, name string) float64 { return b.Values[name] - a.Values[name] }

// HistDelta returns the histogram of observations made between scrapes a
// and b, in metrics.HistogramSnapshot form so quantiles interpolate
// exactly as the daemon's own /statusz does.
func HistDelta(a, b *Scrape, name string) metrics.HistogramSnapshot {
	hb := b.Hists[name]
	if hb == nil {
		return metrics.HistogramSnapshot{}
	}
	ha := a.Hists[name]
	out := metrics.HistogramSnapshot{Bounds: hb.Bounds, Counts: make([]uint64, len(hb.Bounds)+1)}
	prev := uint64(0)
	for i := range hb.Bounds {
		c := hb.Counts[i]
		if ha != nil && i < len(ha.Counts) {
			c -= ha.Counts[i]
		}
		out.Counts[i] = c - prev
		prev = c
	}
	out.Count, out.Sum = hb.Count, hb.Sum
	if ha != nil {
		out.Count -= ha.Count
		out.Sum -= ha.Sum
	}
	out.Counts[len(hb.Bounds)] = out.Count - prev
	return out
}

// MemStats is the runtime.MemStats subset /debug/pprof/heap?debug=1 prints.
type MemStats struct {
	TotalAlloc, NumGC uint64
	PauseNs           []uint64 // the runtime's 256-entry ring
}

func (t *Target) MemStats() (MemStats, error) {
	body, err := t.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return MemStats{}, err
	}
	var ms MemStats
	for _, line := range strings.Split(string(body), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "TotalAlloc":
			ms.TotalAlloc, _ = strconv.ParseUint(v, 10, 64)
		case "NumGC":
			ms.NumGC, _ = strconv.ParseUint(v, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, _ := strconv.ParseUint(f, 10, 64)
				ms.PauseNs = append(ms.PauseNs, n)
			}
		}
	}
	return ms, nil
}

// pauseBetween sums the GC pauses of cycles (a.NumGC, b.NumGC]. The
// runtime keeps only the last 256; past that, their mean stands in for
// the cycles it forgot.
func pauseBetween(a, b MemStats) time.Duration {
	n := b.NumGC - a.NumGC
	if n == 0 || len(b.PauseNs) != 256 {
		return 0
	}
	var sum uint64
	for i := uint64(0); i < min(n, 256); i++ {
		sum += b.PauseNs[(b.NumGC-i+255)%256]
	}
	if n > 256 {
		sum = sum / 256 * n
	}
	return time.Duration(sum)
}

// Proc is a running gill-daemon.
type Proc struct {
	Target
	cmd     *exec.Cmd
	done    chan struct{}
	waitErr error
	logMu   sync.Mutex
	logTail []string // the last log lines, for the final-ledger parse
}

var addrRE = regexp.MustCompile(`\b(addr|admin_addr)=(\S+)`)

// StartDaemon execs bin with args and waits until its BGP and admin
// listeners are bound. The daemon's stderr is copied to logPath.
func StartDaemon(bin string, args []string, logPath string) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// stderr goes through an io.Pipe, not StderrPipe: Wait then returns
	// only after every byte was copied, so the final ledger line is never
	// lost to the pipe closing under the reader.
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &Proc{cmd: cmd, done: make(chan struct{})}
	p.Client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	addrs := make(chan [2]string, 8)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		defer logf.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			p.logMu.Lock()
			p.logTail = append(p.logTail, line)
			if len(p.logTail) > 64 {
				p.logTail = p.logTail[1:]
			}
			p.logMu.Unlock()
			if strings.Contains(line, `msg=listening`) || strings.Contains(line, `msg="admin plane listening"`) {
				if m := addrRE.FindStringSubmatch(line); m != nil {
					addrs <- [2]string{m[1], m[2]}
				}
			}
		}
		io.Copy(io.Discard, pr)
	}()
	go func() {
		p.waitErr = cmd.Wait()
		pw.Close()
		<-scanned
		close(p.done)
	}()
	deadline := time.After(120 * time.Second)
	for p.BGPAddr == "" || p.AdminAddr == "" {
		select {
		case a := <-addrs:
			if a[0] == "addr" {
				p.BGPAddr = a[1]
			} else {
				p.AdminAddr = a[1]
			}
		case <-p.done:
			return nil, fmt.Errorf("gill-daemon exited during startup: %v (log %s)", p.waitErr, logPath)
		case <-deadline:
			p.Kill()
			return nil, errors.New("gill-daemon did not bind its listeners within 120s")
		}
	}
	return p, nil
}

// WaitReady polls /readyz until it answers 200.
func (p *Proc) WaitReady() error {
	for i := 0; ; i++ {
		resp, err := p.Client.Get(p.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if i > 20000 {
			return errors.New("gill-daemon never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop sends SIGINT, waits for a clean exit, and fails on any other exit.
func (p *Proc) Stop() error {
	_ = p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.Kill()
		return errors.New("gill-daemon did not exit within 60s of SIGINT")
	}
	if p.waitErr != nil {
		return fmt.Errorf("gill-daemon exit: %w", p.waitErr)
	}
	return nil
}

// Kill ends the process without ceremony and waits for it.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// Ledger parses the daemon's "final ledger" log line.
func (p *Proc) Ledger() (map[string]uint64, error) {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	for i := len(p.logTail) - 1; i >= 0; i-- {
		line := p.logTail[i]
		if !strings.Contains(line, `msg="final ledger"`) {
			continue
		}
		out := map[string]uint64{}
		for _, f := range strings.Fields(line) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				if n < 0 {
					n = -n // unaccounted is a signed residual; any nonzero fails
				}
				out[k] = uint64(n)
			}
		}
		return out, nil
	}
	return nil, errors.New("no final ledger line in the daemon log")
}

// CPUTime reads utime+stime of pid from /proc.
func CPUTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+2:])
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / 100, nil // USER_HZ = 100
}

// PeakRSS reads VmHWM of pid, in MiB.
func PeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024, err
		}
	}
	return math.NaN(), errors.New("no VmHWM")
}

func (p *Proc) Pid() int { return p.cmd.Process.Pid }
