package main

// One measured run against a System: boot, offer the workload, drain,
// scrape, shut down, verify.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/index"
)

// System is the collector under test: the gill-daemon process, or the
// traced in-process assembly of the same layers.
type System interface {
	// Boot starts the collector and returns once /readyz answers OK.
	Boot() (*Target, error)
	// Shutdown stops it the way SIGINT does and returns the final
	// completeness ledger (in, archived, filtered, dropped, rejected,
	// lost, unaccounted).
	Shutdown() (map[string]uint64, error)
	// Abort stops it without ceremony after a failed run.
	Abort()
	// Pid is the process whose CPU and memory are charged to the run.
	Pid() int
}

// RunResult is one run's figures, verdict and raw samples.
type RunResult struct {
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	E2E       map[string]Metric `json:"end_to_end"`
	Layers    map[string]Metric `json:"per_layer"`
	Raw       map[string]any    `json:"raw"`
	logs      []*sendLog
	start     time.Time
}

func (r *RunResult) fail(format string, args ...any) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	r.Errors = append(r.Errors, msg)
	fmt.Fprintln(os.Stderr, "daemonbench: INCORRECT:", msg)
}

func drive(wl *Workload, in *inputs, sys System, minBoots, maxBoots int) (*RunResult, error) {
	t0run := time.Now()
	res := &RunResult{Correct: true, E2E: map[string]Metric{}, Layers: map[string]Metric{}, Raw: map[string]any{}}
	var (
		tgt   *Target
		peers []*Peer
		sub   *Subscriber
		setup []float64
	)
	closeLoad := func() {
		for _, p := range peers {
			p.Close()
		}
		peers = nil
		if sub != nil {
			sub.Close()
			sub = nil
		}
	}
	ok := false
	defer func() {
		if !ok {
			closeLoad()
			sys.Abort()
		}
	}()
	// setup_s: exec → /readyz OK, every session Established and the
	// subscriber attached, over the same WAL each time. The figure is the
	// median of at least minBoots boots; a daemon that boots fast is
	// booted more often (up to maxBoots, while the boots took under a
	// second in all), since a 0.1 s figure is mostly scheduling noise.
	var total float64
	for b := 0; ; b++ {
		t0 := time.Now()
		var err error
		if tgt, err = sys.Boot(); err != nil {
			return nil, err
		}
		for s := 0; s < wl.Sessions; s++ {
			p, err := DialPeer(tgt.BGPAddr, s)
			if err != nil {
				return nil, err
			}
			peers = append(peers, p)
		}
		if sub, err = Subscribe(tgt, wl.Stream); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		total += setup[b]
		if b+1 >= maxBoots || b+1 >= minBoots && total >= 1 {
			break
		}
		closeLoad()
		if _, err := sys.Shutdown(); err != nil {
			return nil, err
		}
	}
	res.Raw["setup_s"] = setup
	phase("boot", t0run)

	walBefore := dirBytes(in.walDir)
	p0, err := tgt.Progress()
	if err != nil {
		return nil, err
	}
	flow0, err := tgt.Flow()
	if err != nil {
		return nil, err
	}
	a0, err := tgt.Scrape()
	if err != nil {
		return nil, err
	}
	ms0, err := tgt.MemStats()
	if err != nil {
		return nil, err
	}
	cpu0, err := CPUTime(sys.Pid())
	if err != nil {
		return nil, err
	}

	start := time.Now().Add(20 * time.Millisecond)
	logs := make([]*sendLog, wl.Sessions)
	errc := make(chan error, wl.Sessions+1) // senders, poller
	var wg sync.WaitGroup
	var win *window
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	if wl.Closed {
		// The closed loop's clock: pipeline progress from /metrics,
		// polled every 5 ms.
		win = newWindow(closedLoopBound)
		go func() {
			defer close(pollDone)
			for {
				select {
				case <-pollStop:
					return
				default:
				}
				f, err := tgt.Flow()
				if err != nil {
					errc <- err
					win.stop()
					return
				}
				win.advance(int64(f.Terminal - flow0.Terminal))
				time.Sleep(5 * time.Millisecond)
			}
		}()
	} else {
		close(pollDone)
	}
	for s := 0; s < wl.Sessions; s++ {
		logs[s] = &sendLog{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var err error
			if wl.Closed {
				err = RunClosedLoop(peers[s], in.wire[s], start, win, logs[s])
			} else {
				err = RunOpenLoop(peers[s], in.srcs[s].(*scheduleSource), start, logs[s])
			}
			if err != nil {
				errc <- err
			}
		}(s)
	}
	var qres []QueryResult
	qstop := make(chan struct{})
	qdone := make(chan struct{})
	go func() {
		defer close(qdone)
		if wl.Queries {
			time.Sleep(time.Until(start))
			qres = RunQueries(tgt, in.queries, qstop)
		}
	}()
	if wl.Closed {
		time.Sleep(time.Until(start.Add(in.window)))
		win.stop()
	}
	wg.Wait()
	close(qstop)
	<-qdone
	close(pollStop)
	<-pollDone
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	var sentUpds int64
	var sentMsgs []int
	for _, l := range logs {
		sentUpds += int64(l.upds)
		sentMsgs = append(sentMsgs, l.msgs)
	}
	// Drain: the window ends when the last update is terminal.
	deadline := time.Now().Add(90 * time.Second)
	for {
		f, err := tgt.Flow()
		if err != nil {
			return nil, err
		}
		if int64(f.In-flow0.In) >= sentUpds && f.Terminal >= f.In && f.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon did not drain: %d of %d updates in, %d terminal",
				f.In-flow0.In, sentUpds, f.Terminal-flow0.Terminal)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)
	cpu1, err := CPUTime(sys.Pid())
	if err != nil {
		return nil, err
	}
	p1, err := tgt.Progress()
	if err != nil {
		return nil, err
	}
	// Let the subscriber catch up: delivery is asynchronous to the pipeline.
	for last, quiet := sub.count(), 0; quiet < 20; {
		time.Sleep(10 * time.Millisecond)
		if n := sub.count(); n != last {
			last, quiet = n, 0
		} else {
			quiet++
		}
	}
	a1, err := tgt.Scrape()
	if err != nil {
		return nil, err
	}
	ms1, err := tgt.MemStats()
	if err != nil {
		return nil, err
	}
	rss, err := PeakRSS(sys.Pid())
	if err != nil {
		return nil, err
	}
	stats := sub
	closeLoad()
	ledger, err := sys.Shutdown()
	ok = true
	if err != nil {
		res.fail("shutdown: %v", err)
	}
	walAfter := dirBytes(in.walDir)

	phase("window+drain+shutdown", t0run)
	// ---- verification ----
	run := newLiveRun(in.srcs, sentMsgs)
	lost := ledger["dropped"] + ledger["lost"]
	if ledger["in"] != uint64(sentUpds) {
		res.fail("ledger: daemon received %d canonical updates, %d were sent", ledger["in"], sentUpds)
	}
	if ledger["unaccounted"] != 0 {
		res.fail("ledger: %d updates unaccounted", ledger["unaccounted"])
	}
	// The stream check is independent of the journal's: run it beside.
	var srep StreamReport
	var serr error
	sdone := make(chan struct{})
	go func() {
		defer close(sdone)
		srep, serr = CheckStream(stats, wl.Stream, run, in.fs, start, logs)
	}()
	rs, err := archive.RecoverJournal(in.walDir, nil, nil)
	if err != nil || !rs.Clean {
		res.fail("journal recovery not clean after a clean exit: %+v %v", rs, err)
	}
	wrep, err := CheckWAL(in.walDir, in.pre, run, in.fs, lost)
	if err != nil {
		res.fail("journal: %v", err)
	}

	<-sdone
	if serr != nil {
		res.fail("stream: %v", serr)
	}
	if stats.Evicted || stats.Err != nil {
		res.fail("stream subscriber evicted=%v err=%v", stats.Evicted, stats.Err)
	}
	var qLat, rLat []time.Duration
	qErrors := 0
	for i, q := range qres {
		if q.Err != nil || q.Status/100 != 2 {
			qErrors++
			continue
		}
		if q.Req.RIB {
			rLat = append(rLat, q.Latency)
		} else {
			qLat = append(qLat, q.Latency)
		}
		if err := CheckAnswer(q.Body, in.refs.Expect(q.Req)); err != nil {
			res.fail("query %d %s: %v", i, q.Req.Path(), err)
		}
	}
	if wl.Queries {
		// Pin the reference fold to the repository's index-free replay.
		for _, q := range in.queries[:8] {
			if !q.RIB {
				continue
			}
			got, err := index.ReplayRIB(in.walDir, time.Unix(q.At, 0), q.Prefix, "")
			want := in.refs.Expect(q)
			if err != nil || len(got) != len(want) {
				res.fail("index.ReplayRIB %s: %d routes (%v), reference %d", q.Path(), len(got), err, len(want))
				break
			}
			for i := range got {
				if !sameUpdate(got[i], want[i]) {
					res.fail("index.ReplayRIB %s differs from the reference at %d", q.Path(), i)
				}
			}
			break
		}
	}

	phase("verify", t0run)
	// ---- metrics ----
	kupd := float64(sentUpds) / 1000
	archived := float64(p1.Written - p0.Written)
	ingested := float64(p1.Terminal() - p0.Terminal())
	res.E2E["setup_s"] = Metric{median(setup), "s"}
	// Every update that reached its verdict: archived, or dropped by the
	// filter. Counting only the archived would make live-bursty's figure
	// swing with which slots its seeded filter drops.
	res.E2E["transfer_upd_per_s"] = Metric{ingested / elapsed.Seconds(), "upd/s"}
	res.E2E["stream_p50_ms"] = Metric{quantileMS(srep.Latency, 0.50), "ms"}
	res.E2E["rss_peak_mb"] = Metric{rss, "MiB"}

	L := res.Layers
	// The stream's tail is a per-layer figure. Seals delay a few percent
	// of the open-loop workloads' updates, so their p99 and p99.9 sit on
	// the stall mode and amplify every change in the machine's speed:
	// over ten seeds on a shared VM their spread reached 0.26–0.28 of the
	// median, beyond any bound a regression gate could hold.
	L["stream_p99_ms"] = Metric{quantileMS(srep.Latency, 0.99), "ms"}
	L["stream_p999_ms"] = Metric{quantileMS(srep.Latency, 0.999), "ms"}
	// CPU time is per-layer too: on live-bursty, where the daemon does
	// many small wake-ups per update, the VM's neighbours moved it by up
	// to 0.25 of its median over ten seeds.
	L["cpu_ms_per_kupd"] = Metric{float64(cpu1-cpu0) / 1e6 / kupd, "ms/kupd"}
	L["lost_frac"] = Metric{float64(lost) / float64(sentUpds), "ratio"}
	L["stream_missed_frac"] = Metric{float64(srep.Missed) / float64(max(srep.Expected, 1)), "ratio"}
	L["query_error_frac"] = Metric{float64(qErrors) / float64(max(len(qres), 1)), "ratio"}
	L["query_p50_ms"] = Metric{quantileMS(qLat, 0.50), "ms"}
	L["query_p90_ms"] = Metric{quantileMS(qLat, 0.90), "ms"}
	L["rib_p50_ms"] = Metric{quantileMS(rLat, 0.50), "ms"}
	L["rib_p90_ms"] = Metric{quantileMS(rLat, 0.90), "ms"}
	layerMetricsA(L, a0, a1)
	L["index.file_mb"] = Metric{fileMB(filepath.Join(in.walDir, index.FileName)), "MiB"}
	L["process.alloc_bytes_per_upd"] = Metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(sentUpds), "B"}
	L["process.gc_cycles"] = Metric{float64(ms1.NumGC - ms0.NumGC), "count"}
	L["process.gc_pause_ms"] = Metric{float64(pauseBetween(ms0, ms1)) / 1e6, "ms"}
	L["archive.bytes_per_upd"] = Metric{float64(walAfter-walBefore) / float64(max(wrep.Archived, 1)), "B"}
	var lags []time.Duration
	for _, l := range logs {
		lags = append(lags, l.lag...)
	}
	L["harness.send_lag_p99_ms"] = Metric{quantileMS(lags, 0.99), "ms"}

	res.Attempted = sentUpds + int64(srep.Expected) + int64(len(qres))
	res.Failed = int64(lost) + int64(srep.Missed) + int64(qErrors)
	res.logs, res.start = logs, start
	res.Raw["sent_updates"] = sentUpds
	res.Raw["archived"] = archived
	res.Raw["elapsed_s"] = elapsed.Seconds()
	res.Raw["stream_latency_ms"] = durationsMS(srep.Latency)
	res.Raw["query_latency_ms"] = durationsMS(qLat)
	res.Raw["rib_latency_ms"] = durationsMS(rLat)
	res.Raw["send_lag_ms"] = durationsMS(lags)
	res.Raw["ledger"] = ledger
	res.Raw["stream_expected"], res.Raw["stream_delivered"] = srep.Expected, srep.Delivered
	res.Raw["query_requests"], res.Raw["rib_requests"] = len(qLat), len(rLat)
	return res, nil
}

// layerMetricsA derives the per-layer figures of the daemon's own
// histograms and counters over the window (source A).
func layerMetricsA(L map[string]Metric, a0, a1 *Scrape) {
	const pipe = "daemon_pipeline_"
	q := func(name string, p, div float64) float64 {
		return HistDelta(a0, a1, name).Quantile(p) / div
	}
	L["pipeline.queue_wait_p50_us"] = Metric{q(pipe+"queue_wait_ns", 0.50, 1e3), "us"}
	L["pipeline.queue_wait_p99_us"] = Metric{q(pipe+"queue_wait_ns", 0.99, 1e3), "us"}
	L["pipeline.e2e_p99_us"] = Metric{q(pipe+"e2e_latency_ns", 0.99, 1e3), "us"}
	L["pipeline.batch_mean"] = Metric{HistDelta(a0, a1, pipe+"batch_size").Mean(), "count"}
	L["pipeline.dropped"] = Metric{Delta(a0, a1, pipe+"dropped"), "count"}
	for _, st := range []string{"vitals", "filter", "live", "archive", "counter"} {
		h := HistDelta(a0, a1, pipe+"stage_"+st+"_latency_ns")
		L["pipeline.stage."+st+".busy_ms"] = Metric{float64(h.Sum) / 1e6, "ms"}
	}
	fin := Delta(a0, a1, pipe+"stage_filter_in")
	L["pipeline.stage.filter.drop_ratio"] = Metric{ratio(fin-Delta(a0, a1, pipe+"stage_filter_out"), fin), "ratio"}
	scanned, skipped := Delta(a0, a1, "index_segments_scanned"), Delta(a0, a1, "index_segments_skipped")
	queries := Delta(a0, a1, "index_queries_query") + Delta(a0, a1, "index_queries_rib")
	L["index.segments_scanned_per_query"] = Metric{ratio(scanned, queries), "count"}
	L["index.segments_skipped_ratio"] = Metric{ratio(skipped, scanned+skipped), "ratio"}
	L["index.query_p99_ms"] = Metric{q("index_query_ns", 0.99, 1e6), "ms"}
	L["stream.delivery_p99_ms"] = Metric{q("stream_delivery_ns", 0.99, 1e6), "ms"}
	L["stream.publish_overflow"] = Metric{Delta(a0, a1, "stream_publish_overflow"), "count"}
	L["stream.evicted_slow"] = Metric{Delta(a0, a1, "stream_evicted_slow"), "count"}
}

// phase logs the time since t0 to stderr, to see where a run's time goes.
func phase(name string, t0 time.Time) {
	fmt.Fprintf(os.Stderr, "daemonbench: %s done at %.1fs\n", name, time.Since(t0).Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func fileMB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}

// dirBytes sums the journal segments' sizes.
func dirBytes(dir string) int64 {
	segs, _ := archive.ListSegments(dir)
	var n int64
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// binarySystem is gill-daemon as a child process.
type binarySystem struct {
	bin    string
	args   []string
	logDir string
	proc   *Proc
	n      int
}

func (b *binarySystem) Boot() (*Target, error) {
	b.n++
	p, err := StartDaemon(b.bin, b.args, filepath.Join(b.logDir, fmt.Sprintf("daemon-%d.log", b.n)))
	if err != nil {
		return nil, err
	}
	b.proc = p
	if err := p.WaitReady(); err != nil {
		p.Kill()
		return nil, err
	}
	return &p.Target, nil
}

func (b *binarySystem) Shutdown() (map[string]uint64, error) {
	if err := b.proc.Stop(); err != nil {
		return nil, err
	}
	return b.proc.Ledger()
}

func (b *binarySystem) Abort() {
	if b.proc != nil {
		select {
		case <-b.proc.done:
		default:
			b.proc.Kill()
		}
	}
}

func (b *binarySystem) Pid() int { return b.proc.Pid() }
