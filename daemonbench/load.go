package main

// The load generator: BGP sessions over loopback (open- or closed-loop),
// one passive /stream subscriber, and one closed-loop query client. All
// of it runs in this one process and talks to a Target.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
)

// Peer is one established BGP session towards the target.
type Peer struct {
	Session int
	conn    net.Conn
	sess    *bgp.Session
}

// DialPeer opens and establishes session i (AS liveAS0+i). The benchmark
// writes pre-encoded UPDATEs straight to the socket, so its own keepalive
// timer is parked beyond any run's length (writes must not interleave).
func DialPeer(addr string, i int) (*Peer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	as := uint32(liveAS0 + i)
	sess, err := bgp.Establish(ctx, conn, bgp.SpeakerConfig{
		LocalAS:        as,
		RouterID:       netip.AddrFrom4([4]byte{10, 0, byte(as >> 8), byte(as)}),
		HoldTime:       180,
		KeepaliveEvery: 24 * time.Hour,
	})
	if err != nil {
		return nil, fmt.Errorf("session %d: %w", i, err)
	}
	return &Peer{Session: i, conn: conn, sess: sess}, nil
}

// Close ends the session with a Cease.
func (p *Peer) Close() { _ = p.sess.Close() }

// sendLog records, per message index, when it was due (open loop) or
// actually written (closed loop), as an offset from the window start.
type sendLog struct {
	mu   sync.Mutex
	at   []time.Duration
	msgs int
	upds int // canonical updates
	lag  []time.Duration
}

func (l *sendLog) due(k int) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if k < len(l.at) {
		return l.at[k], true
	}
	return 0, false
}

// RunOpenLoop sends src's schedule on time, whatever the target does: a
// message's latency clock starts at its due time, so a stall also
// charges every message that queued behind it. Messages due together go
// out in one write.
func RunOpenLoop(p *Peer, src *scheduleSource, start time.Time, log *sendLog) error {
	var buf []byte
	n := len(src.msgs)
	log.at = make([]time.Duration, n)
	for k := 0; k < n; {
		due := src.msgs[k].Due
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		now := time.Since(start)
		log.lag = append(log.lag, now-due)
		buf = buf[:0]
		for ; k < n && src.msgs[k].Due <= now; k++ {
			var err error
			if buf, err = bgp.AppendMessage(buf, src.msgs[k].Update); err != nil {
				return err
			}
			log.at[k] = src.msgs[k].Due
			log.upds += len(src.msgs[k].Prefix)
		}
		if _, err := p.conn.Write(buf); err != nil {
			return fmt.Errorf("session %d send: %w", p.Session, err)
		}
	}
	log.msgs = n
	return nil
}

// window is the closed-loop flow control shared by the sessions: the
// canonical updates sent but not yet terminal in /statusz stay below
// bound, so the pipeline queue never overflows.
type window struct {
	bound    int64
	sent     atomic.Int64
	terminal atomic.Int64
	mu       sync.Mutex
	cond     *sync.Cond
	stopped  bool
}

func newWindow(bound int64) *window {
	w := &window{bound: bound}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// acquire blocks until n more updates fit, or the window is stopped.
func (w *window) acquire(n int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.stopped && w.sent.Load()+n-w.terminal.Load() > w.bound {
		w.cond.Wait()
	}
	if w.stopped {
		return false
	}
	w.sent.Add(n)
	return true
}

func (w *window) advance(terminal int64) {
	w.mu.Lock()
	w.terminal.Store(terminal)
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *window) stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// encoded is a prefix of a source's messages as wire bytes, built before
// the window so the closed loop spends its CPU on writing, not on
// generating.
type encoded struct {
	wire []byte
	ends []int // end offset of each message in wire
	upds []int // canonical updates in each message
}

func preEncode(src Source, n int) (*encoded, error) {
	e := &encoded{}
	for k := 0; k < n; k++ {
		m, ok := src.Msg(k)
		if !ok {
			break
		}
		var err error
		if e.wire, err = bgp.AppendMessage(e.wire, m.Update); err != nil {
			return nil, err
		}
		e.ends = append(e.ends, len(e.wire))
		e.upds = append(e.upds, len(m.Prefix))
	}
	return e, nil
}

// RunClosedLoop sends enc's messages in chunks as the window allows,
// until the window stops or the messages run out.
func RunClosedLoop(p *Peer, enc *encoded, start time.Time, w *window, log *sendLog) error {
	const chunk = 16 // messages per write
	for k := 0; k < len(enc.ends); {
		n := min(chunk, len(enc.ends)-k)
		upds := 0
		for _, u := range enc.upds[k : k+n] {
			upds += u
		}
		if !w.acquire(int64(upds)) {
			return nil
		}
		lo := 0
		if k > 0 {
			lo = enc.ends[k-1]
		}
		at := time.Since(start)
		if _, err := p.conn.Write(enc.wire[lo:enc.ends[k+n-1]]); err != nil {
			return fmt.Errorf("session %d send: %w", p.Session, err)
		}
		log.mu.Lock()
		for i := 0; i < n; i++ {
			log.at = append(log.at, at)
		}
		log.msgs += n
		log.upds += upds
		log.mu.Unlock()
		k += n
	}
	return errors.New("closed loop ran out of pre-encoded messages; raise tableRounds")
}

// Subscriber is the passive /stream probe: it records each UPDATE line
// with its arrival time and parses nothing while the run is timed.
type Subscriber struct {
	cancel  context.CancelFunc
	done    chan struct{}
	Lines   [][]byte
	At      []time.Time
	n       atomic.Int64 // len(Lines), readable while the reader runs
	Evicted bool
	Err     error
}

// Subscribe opens GET /stream?filter=expr and returns once the hub's
// hello line has arrived, i.e. the subscriber is attached.
func Subscribe(t *Target, expr string) (*Subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		t.url("/stream?queue=65536&filter="+url.QueryEscape(expr)), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	hello, err := br.ReadBytes('\n')
	if err != nil || !bytes.Contains(hello, []byte(`"hello"`)) {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream: no hello line (%v)", err)
	}
	s := &Subscriber{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				if ctx.Err() == nil && err != io.EOF {
					s.Err = err
				}
				return
			}
			now := time.Now()
			switch {
			case bytes.HasPrefix(line, []byte(`{"type":"UPDATE"`)):
				s.Lines = append(s.Lines, line)
				s.At = append(s.At, now)
				s.n.Add(1)
			case bytes.Contains(line, []byte(`"evicted"`)):
				s.Evicted = true
			}
		}
	}()
	return s, nil
}

func (s *Subscriber) count() int64 { return s.n.Load() }

// Close detaches the subscriber and waits for its reader to exit.
func (s *Subscriber) Close() {
	s.cancel()
	<-s.done
}

// QueryResult is one /api request of the query client.
type QueryResult struct {
	Req     QueryReq
	Latency time.Duration
	Status  int
	Body    []byte
	Err     error
}

// RunQueries issues reqs back to back (cycling) until stop closes.
func RunQueries(t *Target, reqs []QueryReq, stop <-chan struct{}) []QueryResult {
	client := &http.Client{Timeout: 10 * time.Second}
	var out []QueryResult
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		default:
		}
		q := reqs[i%len(reqs)]
		t0 := time.Now()
		r := QueryResult{Req: q}
		resp, err := client.Get(t.url(q.Path()))
		if err == nil {
			r.Body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			r.Status = resp.StatusCode
		}
		r.Latency, r.Err = time.Since(t0), err
		out = append(out, r)
	}
}
