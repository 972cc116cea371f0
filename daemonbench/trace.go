package main

// The traced run: the layers cmd/gill-daemon wires together, assembled
// in this process through their public APIs with the binary's defaults,
// and a span recorded around every call the benchmark can wrap. Spans
// stay in memory and are written out when the run ends; the per-layer
// table is computed from them.

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/bgp"
	"repro/internal/daemon"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/update"
	"repro/internal/vitals"
)

// Span names.
const (
	spanForward = iota // due time → Daemon.AddForward callback (bgp + daemon)
	spanAppend         // Journal.Append in the record sink (archive, mrt)
	spanAddSeg         // Index.AddSegment in OnSeal (index)
	spanGapScan        // GapAuditor.ScanSegment in OnSeal (vitals)
	spanPublish        // Hub.Publish (stream)
	spanDecode         // bgp decode of the run's sent byte stream
	numSpanNames
)

var spanNames = [numSpanNames]string{"daemon.forward", "archive.append", "index.add_segment", "vitals.gap_scan", "stream.publish", "bgp.decode"}

// span is one timed call: name, start, end, the span that caused it
// (-1 for none) and the message ID of the update it carried (0 for none).
type span struct {
	name       uint8
	start, end int64 // unix ns
	parent     int32
	msg        uint32
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) int32 {
	l.mu.Lock()
	i := int32(len(l.spans))
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return i
}

func msgOf(comms []uint32) uint32 {
	for _, c := range comms {
		if isMsgID(c) {
			return c
		}
	}
	return 0
}

func recordMsg(rec *mrt.Record) uint32 {
	if rec.BGP4MP == nil {
		return 0
	}
	u, ok := rec.BGP4MP.Message.(*bgp.Update)
	if !ok {
		return 0
	}
	for _, c := range u.Communities {
		if isMsgID(uint32(c)) {
			return uint32(c)
		}
	}
	return 0
}

// tracedSystem mirrors cmd/gill-daemon's assembly for "-wal DIR -admin
// ADDR [-filters FILE]": daemon.New with a Registry, a Tracer, the
// quality plane at 1/64, the vitals plane with a GapAuditor, RecordSink =
// Journal.Append, OnSeal = Index.AddSegment then GapAuditor.ScanSegment,
// and Publish = Hub.Publish.
type tracedSystem struct {
	in     *inputs
	spans  spanLog
	cancel context.CancelFunc
	d      *daemon.Daemon
	wal    *archive.Journal
	hub    *stream.Hub
	served sync.WaitGroup
	// curAppend is the archive.append span in progress. The archive stage
	// calls its sink under its own lock, so appends never overlap, and
	// Journal.Append runs OnSeal synchronously inside the append whose
	// record triggered the rotation: that span is the seal spans' parent.
	curAppend int32
	forwardMu sync.Mutex
	forwards  []fwd
}

type fwd struct {
	at  int64
	msg uint32
}

func newTracedSystem(in *inputs) *tracedSystem { return &tracedSystem{in: in} }

func (t *tracedSystem) Boot() (*Target, error) {
	in := t.in
	reg := metrics.NewRegistry()
	rec := telemetry.NewRecorder(0, 0)
	rec.Process = "daemon"
	denom, _ := quality.ParseFraction("1/64")
	qp := quality.NewPlane(quality.Config{Selector: quality.Selector{Seed: 1, Denom: denom}, Registry: reg})
	gaps := vitals.NewGapAuditor(5*time.Minute, reg)
	tracker := vitals.New(vitals.Config{Registry: reg, EvalInterval: time.Second, SilentAfter: 30 * time.Second, Gaps: gaps})
	qp.SetVPHealth(func() any { return tracker.Summary() })

	if _, err := archive.RecoverJournal(in.walDir, reg, nil); err != nil {
		return nil, err
	}
	wal, err := archive.OpenJournal(in.walDir, 0)
	if err != nil {
		return nil, err
	}
	ix, err := index.NewService(in.walDir, reg)
	if err != nil {
		return nil, err
	}
	wal.OnSeal = func(path string) {
		parent := t.curAppend
		t0 := time.Now().UnixNano()
		_ = ix.Index.AddSegment(path)
		t1 := time.Now().UnixNano()
		_ = gaps.ScanSegment(path)
		t2 := time.Now().UnixNano()
		t.spans.add(span{name: spanAddSeg, start: t0, end: t1, parent: parent})
		t.spans.add(span{name: spanGapScan, start: t1, end: t2, parent: parent})
	}
	if err := gaps.AuditDir(in.walDir); err != nil {
		return nil, err
	}
	hub := stream.NewHub(stream.Config{Registry: reg})
	cfg := daemon.Config{
		LocalAS:  65000,
		RouterID: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		Filters:  in.fs,
		Registry: reg,
		Tracer:   rec,
		Quality:  qp,
		Vitals:   tracker,
		RecordSink: func(r *mrt.Record) error {
			i := t.spans.add(span{name: spanAppend, start: time.Now().UnixNano(), parent: -1, msg: recordMsg(r)})
			t.curAppend = i
			err := wal.Append(r)
			end := time.Now().UnixNano()
			t.spans.mu.Lock()
			t.spans.spans[i].end = end
			t.spans.mu.Unlock()
			return err
		},
		Publish: func(u *update.Update) {
			t0 := time.Now().UnixNano()
			hub.Publish(u)
			t.spans.add(span{name: spanPublish, start: t0, end: time.Now().UnixNano(), parent: -1, msg: msgOf(u.Comms)})
		},
	}
	d := daemon.New(cfg)
	d.AddForward(sampledPrefixes(in), func(u *update.Update) {
		if m := msgOf(u.Comms); m != 0 {
			t.forwardMu.Lock()
			t.forwards = append(t.forwards, fwd{time.Now().UnixNano(), m})
			t.forwardMu.Unlock()
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel, t.d, t.wal, t.hub = cancel, d, wal, hub
	admin := &telemetry.Admin{
		Registry: reg,
		Recorder: rec,
		Routes: map[string]http.Handler{
			"/stream": hub.StreamHandler(),
			"/api/":   http.StripPrefix("/api", ix.Handler()),
		},
		Ready:   func() (bool, string) { return true, "ready" },
		Status:  func() any { return d.StatusSnapshot() },
		Quality: func() any { return qp.Status() },
		Vitals:  func() any { return tracker.Snapshot() },
	}
	t.served.Add(4)
	go func() { defer t.served.Done(); qp.Run(ctx) }()
	go func() { defer t.served.Done(); tracker.Run(ctx) }()
	go func() { defer t.served.Done(); _ = admin.Serve(ctx, adminLn) }()
	go func() { defer t.served.Done(); _ = d.Serve(ctx, ln) }()
	return &Target{
		BGPAddr:   ln.Addr().String(),
		AdminAddr: adminLn.Addr().String(),
		Client:    &http.Client{Timeout: 30 * time.Second},
	}, nil
}

// Shutdown follows the binary's order: stop accepting and wait for the
// sessions, drain the pipeline, close the hub, close the journal.
func (t *tracedSystem) Shutdown() (map[string]uint64, error) {
	t.cancel()
	t.served.Wait()
	err := t.d.Close()
	t.hub.Close()
	if cerr := t.wal.Close(); err == nil {
		err = cerr
	}
	lc := t.d.LedgerCounts()
	return map[string]uint64{
		"in": lc.In, "archived": lc.Archived, "filtered": lc.Filtered, "dropped": lc.Dropped,
		"rejected": lc.Rejected, "lost": lc.Lost, "unaccounted": uint64(abs(lc.Unaccounted())),
	}, err
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func (t *tracedSystem) Abort() {
	if t.cancel != nil {
		_, _ = t.Shutdown()
		t.cancel = nil
	}
}

func (t *tracedSystem) Pid() int { return os.Getpid() }

// sampledPrefixes is the forward rule's prefix set: every 64th prefix of
// the workload's address plan.
func sampledPrefixes(in *inputs) []netip.Prefix {
	var out []netip.Prefix
	if _, ok := in.srcs[0].(*tableSource); ok {
		for i := 0; i < tablePrefixes; i += 64 {
			out = append(out, tablePrefix(i))
		}
		return out
	}
	for i := 0; i < liveBurstyPrefixes; i += 64 {
		out = append(out, preloadPrefix(i))
	}
	// The hottest prefixes carry most open-loop traffic.
	for i := 1; i < 64; i++ {
		out = append(out, preloadPrefix(i))
	}
	return out
}

// layerTable turns the spans into the per-layer (source T) metrics and
// writes every span to path.
func (t *tracedSystem) layerTable(in *inputs, logs []*sendLog, start time.Time, path string) (map[string]Metric, error) {
	L := map[string]Metric{}
	// bgp: decode the exact byte stream the sessions sent.
	var wire []byte
	msgs := 0
	for s, src := range in.srcs {
		for k := 0; k < logs[s].msgs; k++ {
			m, _ := src.Msg(k)
			var err error
			if wire, err = bgp.AppendMessage(wire, m.Update); err != nil {
				return nil, err
			}
			msgs++
		}
	}
	var u bgp.Update
	t0 := time.Now()
	for off := 0; off < len(wire); {
		n := int(wire[off+16])<<8 | int(wire[off+17])
		if err := bgp.UnmarshalUpdate(wire[off:off+n], &u); err != nil {
			return nil, err
		}
		_ = u.Path()
		_ = u.Comms()
		off += n
	}
	t1 := time.Now()
	t.spans.add(span{name: spanDecode, start: t0.UnixNano(), end: t1.UnixNano(), parent: -1})
	L["bgp.decode_ns_per_msg"] = Metric{float64(t1.Sub(t0).Nanoseconds()) / float64(max(msgs, 1)), "ns"}

	// daemon: due time → forward callback.
	var lag []time.Duration
	for _, f := range t.forwards {
		s, k := int(f.msg>>26&1), int(f.msg&msgIDMask)
		if s >= len(logs) {
			continue
		}
		due, ok := logs[s].due(k)
		if !ok {
			continue
		}
		i := t.spans.add(span{name: spanForward, start: start.Add(due).UnixNano(), end: f.at, parent: -1, msg: f.msg})
		lag = append(lag, time.Duration(t.spans.spans[i].end-t.spans.spans[i].start))
	}
	L["daemon.session_lag_p50_us"] = Metric{quantileMS(lag, 0.50) * 1e3, "us"}
	L["daemon.session_lag_p99_us"] = Metric{quantileMS(lag, 0.99) * 1e3, "us"}

	by := make([][]time.Duration, numSpanNames)
	for _, s := range t.spans.spans {
		if s.start >= start.UnixNano() && s.end >= s.start {
			by[s.name] = append(by[s.name], time.Duration(s.end-s.start))
		}
	}
	busy := func(n int) float64 {
		var sum time.Duration
		for _, d := range by[n] {
			sum += d
		}
		return float64(sum) / 1e6
	}
	maxMS := func(n int) float64 {
		var m time.Duration
		for _, d := range by[n] {
			m = max(m, d)
		}
		return float64(m) / 1e6
	}
	L["archive.append_p50_us"] = Metric{quantileMS(by[spanAppend], 0.50) * 1e3, "us"}
	L["archive.append_p99_us"] = Metric{quantileMS(by[spanAppend], 0.99) * 1e3, "us"}
	L["archive.append_busy_ms"] = Metric{busy(spanAppend), "ms"}
	L["archive.seals"] = Metric{float64(len(by[spanAddSeg])), "count"}
	L["index.add_segment_p50_ms"] = Metric{quantileMS(by[spanAddSeg], 0.50), "ms"}
	L["index.add_segment_max_ms"] = Metric{maxMS(spanAddSeg), "ms"}
	L["index.add_segment_busy_ms"] = Metric{busy(spanAddSeg), "ms"}
	L["vitals.gap_scan_busy_ms"] = Metric{busy(spanGapScan), "ms"}
	L["stream.publish_p50_us"] = Metric{quantileMS(by[spanPublish], 0.50) * 1e3, "us"}
	L["stream.publish_busy_ms"] = Metric{busy(spanPublish), "ms"}
	return L, t.writeSpans(path)
}

// writeSpans dumps every span as gzipped CSV:
// id,name,start_ns,end_ns,parent,msg_id.
func (t *tracedSystem) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,name,start_ns,end_ns,parent,msg_id")
	for i, s := range t.spans.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.start, s.end, s.parent, s.msg)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOverhead compares the traced run's end-to-end figures with the
// binary's: throughput on the closed-loop table transfer, stream p50 on
// the open-loop workloads (whose throughput is the offered rate). A value
// beyond ±50% raises the drift alarm.
func traceOverhead(wl *Workload, bin, traced *RunResult) (float64, bool) {
	var v float64
	if wl.Closed {
		v = ratio(bin.E2E["transfer_upd_per_s"].Value, traced.E2E["transfer_upd_per_s"].Value) - 1
	} else {
		v = ratio(traced.E2E["stream_p50_ms"].Value, bin.E2E["stream_p50_ms"].Value) - 1
	}
	return v, v > 0.5 || v < -0.5
}
