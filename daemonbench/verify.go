package main

// Output verification. A run is correct only if every retained update is
// archived exactly once, intact and in per-(VP, prefix) send order; the
// stream delivers a duplicate-free, order-preserving subset of what it
// should; and every query answer equals its reference. Loss the daemon
// accounts for is a failure, not an incorrect output: the checkers let a
// sequence skip expected updates and report how many it skipped.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/filter"
	"repro/internal/mrt"
	"repro/internal/stream"
	"repro/internal/update"
)

// event is one expected canonical update of a live session.
type event struct {
	key      uint64
	k        int32 // message index within its session
	session  uint8
	withdraw bool
}

func prefixKey(session int, p netip.Prefix) uint64 {
	a := p.Addr().As4()
	return uint64(session)<<40 | uint64(a[0])<<32 | uint64(a[1])<<24 | uint64(a[2])<<16 | uint64(a[3])<<8 | uint64(p.Bits())
}

// Ledger holds expected events in send order and, per (VP, prefix), a
// cursor over that key's events.
type Ledger struct {
	events []event
	next   []int32
	head   map[uint64]int32
	tail   map[uint64]int32
}

func newLedger() *Ledger {
	return &Ledger{head: map[uint64]int32{}, tail: map[uint64]int32{}}
}

func (l *Ledger) add(e event) {
	i := int32(len(l.events))
	l.events = append(l.events, e)
	l.next = append(l.next, -1)
	if t, ok := l.tail[e.key]; ok {
		l.next[t] = i
	} else {
		l.head[e.key] = i
	}
	l.tail[e.key] = i
}

// consume matches one observed update against its key's cursor. It
// returns the matched event and how many expected events it skipped; an
// observation with no match at or after the cursor is a duplicate, a
// reordering or an update that was never sent.
func (l *Ledger) consume(key uint64, withdraw bool, k int32) (event, int, error) {
	i, ok := l.head[key]
	skipped := 0
	for ok && i >= 0 {
		e := l.events[i]
		if e.withdraw == withdraw && (withdraw || e.k == k) {
			l.head[key] = l.next[i]
			return e, skipped, nil
		}
		i = l.next[i]
		skipped++
	}
	return event{}, 0, fmt.Errorf("update for key %x (withdraw=%v msg=%d) is duplicated, reordered or never sent", key, withdraw, k)
}

// remaining counts expected events never consumed.
func (l *Ledger) remaining() int {
	n := 0
	for _, i := range l.head {
		for ; i >= 0; i = l.next[i] {
			n++
		}
	}
	return n
}

// liveRun is what the checkers know about the live part of a run.
type liveRun struct {
	srcs []Source
	sent []int // messages sent per session
	// sent[s][k] is message k of session s as canonical updates, made
	// once from the generator and shared by every check.
	msgs [][][]*update.Update
}

func newLiveRun(srcs []Source, sent []int) *liveRun {
	r := &liveRun{srcs: srcs, sent: sent, msgs: make([][][]*update.Update, len(srcs))}
	for s, src := range srcs {
		r.msgs[s] = make([][]*update.Update, sent[s])
		for k := range r.msgs[s] {
			m, _ := src.Msg(k)
			r.msgs[s][k] = canonical(s, m)
		}
	}
	return r
}

// expected builds the ledger of canonical updates keep selects, in send
// order per session.
func (r *liveRun) expected(keep func(session int, u *update.Update) bool) *Ledger {
	l := newLedger()
	for s, msgs := range r.msgs {
		for k, us := range msgs {
			for _, u := range us {
				if keep(s, u) {
					l.add(event{key: prefixKey(s, u.Prefix), k: int32(k), session: uint8(s), withdraw: u.Withdraw})
				}
			}
		}
	}
	return l
}

func retained(fs *filter.Set) func(int, *update.Update) bool {
	return func(_ int, u *update.Update) bool { return fs == nil || fs.Keep(u) }
}

// sessionOf maps a live VP name back to its session index.
func sessionOf(vp string, sessions int) (int, bool) {
	for s := 0; s < sessions; s++ {
		if vp == "vp"+itoa(liveAS0+s) {
			return s, true
		}
	}
	return 0, false
}

// matchLive checks one observed live update against the ledger and the
// regenerated message content.
func (r *liveRun) matchLive(l *Ledger, u *update.Update) (event, int, error) {
	s, ok := sessionOf(u.VP, len(r.srcs))
	if !ok {
		return event{}, 0, fmt.Errorf("update from unknown VP %q", u.VP)
	}
	k := int32(-1)
	if !u.Withdraw {
		ms, mk, ok := parseMsgID(u.Comms)
		if !ok || ms != s {
			return event{}, 0, fmt.Errorf("announcement of %s by %s carries no message ID of its session", u.Prefix, u.VP)
		}
		k = int32(mk)
	}
	e, skipped, err := l.consume(prefixKey(s, u.Prefix), u.Withdraw, k)
	if err != nil {
		return e, 0, err
	}
	if !u.Withdraw {
		want := r.msgs[s][e.k][0]
		if !slices.Equal(u.Path, want.Path) || !slices.Equal(u.Comms, want.Comms) {
			return e, 0, fmt.Errorf("message %d of %s: attributes altered (path %v comms %v, sent path %v comms %v)",
				e.k, u.VP, u.Path, u.Comms, want.Path, want.Comms)
		}
	}
	return e, skipped, nil
}

func sameUpdate(a, b *update.Update) bool {
	return a.VP == b.VP && a.Time.Unix() == b.Time.Unix() && a.Prefix == b.Prefix &&
		a.Withdraw == b.Withdraw && slices.Equal(a.Path, b.Path) && slices.Equal(a.Comms, b.Comms)
}

// WALReport is the outcome of an offline journal scan.
type WALReport struct {
	Preloaded, Archived, Skipped uint64
}

// CheckWAL scans the journal offline. The first pre.Records records must
// be the preloaded archive, unchanged and in order; every later record
// must be a retained live update, each exactly once, intact, in per-key
// send order. lost is the loss the daemon reported: the archive must hold
// exactly the expected updates minus lost.
func CheckWAL(dir string, pre *Preload, run *liveRun, fs *filter.Set, lost uint64) (WALReport, error) {
	var rep WALReport
	l := run.expected(retained(fs))
	want := uint64(len(l.events))
	segs, err := archive.ListSegments(dir)
	if err != nil {
		return rep, err
	}
	var buf []byte
	for _, seg := range segs {
		_, _, err := archive.ScanSegment(seg, func(payload []byte) error {
			if rep.Preloaded < uint64(pre.Records) {
				// Preloaded frames must be byte-identical to the records
				// the generator wrote.
				i := int(rep.Preloaded)
				var err error
				if buf, err = mrt.AppendRecord(buf[:0], pre.Record(i)); err != nil {
					return err
				}
				if !bytes.Equal(payload, buf) {
					return fmt.Errorf("preloaded record %d altered or out of place in %s", i, seg)
				}
				rep.Preloaded++
				return nil
			}
			rec, err := mrt.NewReader(bytes.NewReader(payload)).ReadRecord()
			if err != nil {
				return fmt.Errorf("%s: undecodable record: %w", seg, err)
			}
			for _, u := range rec.CanonicalUpdates() {
				_, skipped, err := run.matchLive(l, u)
				if err != nil {
					return fmt.Errorf("%s: %w", seg, err)
				}
				rep.Skipped += uint64(skipped)
				rep.Archived++
			}
			return nil
		})
		if err != nil {
			return rep, err
		}
	}
	if rep.Preloaded != uint64(pre.Records) {
		return rep, fmt.Errorf("journal holds %d of %d preloaded records", rep.Preloaded, pre.Records)
	}
	rep.Skipped += uint64(l.remaining())
	if rep.Archived+lost != want || rep.Skipped != lost {
		return rep, fmt.Errorf("journal holds %d live updates, skipped %d; expected %d retained with %d lost",
			rep.Archived, rep.Skipped, want, lost)
	}
	return rep, nil
}

// StreamReport is the outcome of checking the subscriber's lines.
type StreamReport struct {
	Expected, Delivered, Missed int
	Latency                     []time.Duration // due → line read, per delivered update
}

// CheckStream checks that the subscriber got a duplicate-free,
// order-preserving subset of retained ∧ filter, and times each delivered
// line from its message's due (or send) time.
func CheckStream(sub *Subscriber, expr string, run *liveRun, fs *filter.Set, start time.Time, logs []*sendLog) (StreamReport, error) {
	var rep StreamReport
	f, err := stream.ParseFilter(expr)
	if err != nil {
		return rep, err
	}
	keep := retained(fs)
	l := run.expected(func(s int, u *update.Update) bool {
		return keep(s, u) && f.Match(u, func() string { return pathString(u.Path) })
	})
	rep.Expected = len(l.events)
	for i, line := range sub.Lines {
		var m struct {
			VP          string   `json:"vp"`
			Prefix      string   `json:"prefix"`
			Path        []uint32 `json:"path"`
			Communities []uint32 `json:"communities"`
			Withdraw    bool     `json:"withdraw"`
		}
		if err := json.Unmarshal(line, &m); err != nil {
			return rep, fmt.Errorf("stream line %d: %w", i, err)
		}
		p, err := netip.ParsePrefix(m.Prefix)
		if err != nil {
			return rep, fmt.Errorf("stream line %d: %w", i, err)
		}
		u := &update.Update{VP: m.VP, Prefix: p, Path: m.Path, Comms: m.Communities, Withdraw: m.Withdraw}
		e, _, err := run.matchLive(l, u)
		if err != nil {
			return rep, fmt.Errorf("stream line %d: %w", i, err)
		}
		due, ok := logs[e.session].due(int(e.k))
		if !ok {
			return rep, fmt.Errorf("stream line %d: message %d was never sent", i, e.k)
		}
		rep.Latency = append(rep.Latency, sub.At[i].Sub(start.Add(due)))
		rep.Delivered++
	}
	rep.Missed = rep.Expected - rep.Delivered
	return rep, nil
}

func pathString(path []uint32) string {
	b := make([]byte, 0, 8*len(path))
	for i, as := range path {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, itoa(int(as))...)
	}
	return string(b)
}

// QueryReq is one request of the query client.
type QueryReq struct {
	RIB      bool
	From, To int64 // unix seconds (query)
	At       int64 // unix seconds (rib)
	Prefix   netip.Prefix
}

func (q QueryReq) Path() string {
	if q.RIB {
		return fmt.Sprintf("/api/rib?at=%d&prefix=%s", q.At, q.Prefix)
	}
	return fmt.Sprintf("/api/query?from=%d&to=%d&prefix=%s", q.From, q.To, q.Prefix)
}

// queryRefs answers requests from the generator alone: the preloaded
// records of each asked prefix, in write order.
type queryRefs struct {
	pre   *Preload
	byPfx map[netip.Prefix][]int
}

func newQueryRefs(pre *Preload, reqs []QueryReq) *queryRefs {
	r := &queryRefs{pre: pre, byPfx: map[netip.Prefix][]int{}}
	want := map[int]bool{}
	for _, q := range reqs {
		want[int(q.Prefix.Addr().As4()[1])<<8|int(q.Prefix.Addr().As4()[2])] = true
		r.byPfx[q.Prefix] = nil
	}
	for i := 0; i < pre.Records; i++ {
		if rank := pre.Rank(i); want[rank] {
			p := preloadPrefix(rank)
			r.byPfx[p] = append(r.byPfx[p], i)
		}
	}
	return r
}

// Expect returns the reference answer: for a range query, the prefix's
// records with from ≤ t < to (index.Query's bounds), in time order; for a
// RIB query, the last record per VP at or before at with withdrawn routes
// removed, sorted by VP — the fold index.ReplayRIB performs.
func (r *queryRefs) Expect(q QueryReq) []*update.Update {
	var out []*update.Update
	if !q.RIB {
		for _, i := range r.byPfx[q.Prefix] {
			if t := r.pre.Time(i).Unix(); t >= q.From && t < q.To {
				out = append(out, r.pre.Update(i))
			}
		}
		return out
	}
	last := map[string]*update.Update{}
	for _, i := range r.byPfx[q.Prefix] {
		if r.pre.Time(i).Unix() > q.At {
			break
		}
		u := r.pre.Update(i)
		last[u.VP] = u
	}
	for _, u := range last {
		if !u.Withdraw {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VP < out[j].VP })
	return out
}

// CheckAnswer compares one 2xx /api response with the reference.
func CheckAnswer(body []byte, want []*update.Update) error {
	var resp struct {
		Count     int  `json:"count"`
		Truncated bool `json:"truncated"`
		Updates   []struct {
			VP          string   `json:"vp"`
			Timestamp   int64    `json:"timestamp"`
			Prefix      string   `json:"prefix"`
			Path        []uint32 `json:"path"`
			Communities []uint32 `json:"communities"`
			Withdraw    bool     `json:"withdraw"`
		} `json:"updates"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.Truncated || resp.Count != len(resp.Updates) || len(resp.Updates) != len(want) {
		return fmt.Errorf("answer has %d updates (truncated=%v), reference has %d", len(resp.Updates), resp.Truncated, len(want))
	}
	for i, g := range resp.Updates {
		p, err := netip.ParsePrefix(g.Prefix)
		if err != nil {
			return err
		}
		got := &update.Update{VP: g.VP, Time: time.Unix(g.Timestamp, 0), Prefix: p, Path: g.Path, Comms: g.Communities, Withdraw: g.Withdraw}
		if !sameUpdate(got, want[i]) {
			return fmt.Errorf("answer update %d differs from the reference", i)
		}
	}
	return nil
}
