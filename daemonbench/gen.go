package main

// The seeded generator. Everything the benchmark preloads, sends or asks
// is a pure function of the workload seed, so two runs with one seed
// offer the daemon byte-identical inputs and the checker can regenerate
// any expected record on demand instead of holding the whole run in
// memory.

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/mrt"
	"repro/internal/update"
	"repro/internal/workload"
)

const (
	// msgIDBase tags every sent UPDATE with a community carrying its
	// message ID (msgIDBase | session<<26 | index), so one update can be
	// followed from the BGP send through /stream and into the journal.
	msgIDBase uint32 = 1 << 31
	msgIDMask uint32 = 1<<26 - 1
	// halfComm marks about half the live-bursty messages; the stream
	// subscriber's filter selects it.
	halfComm uint32 = 65000<<16 | 1
	// probeComm marks one table-transfer message in probeEvery; the
	// passive latency probe subscribes to it.
	probeComm  uint32 = 65000<<16 | 2
	probeEvery        = 16

	liveAS0    = 65101 // live session i peers as AS liveAS0+i
	preloadAS0 = 64601 // preloaded VP i is AS preloadAS0+i
	preloadVPs = 8
	// preloadPerSec records share each one-second timestamp of the
	// preloaded span.
	preloadPerSec = 64
	// preloadPrefixes is the Zipf-popular prefix universe of the
	// preloaded archive (the internal/workload mix: s=1.2, ~5%
	// withdrawals, 2–5 hop paths, a community on a third).
	preloadPrefixes = 50000
	// liveBurstyPrefixes is live-bursty's working set.
	liveBurstyPrefixes = 20000
	// tablePrefixes is one session's full table in table-transfer.
	tablePrefixes = 1 << 16
)

// preloadBase is the first second of the preloaded span.
var preloadBase = time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)

// splitmix64 is the generator's stateless hash: rec(i) never depends on
// rec(i-1), so the checker can regenerate any record in O(1).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash3(seed int64, a, b uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(seed))^a) ^ b)
}

func msgIDComm(session, k int) uint32 {
	return msgIDBase | uint32(session)<<26 | uint32(k)&msgIDMask
}

func isMsgID(c uint32) bool { return c&0xF8000000 == msgIDBase }

// parseMsgID extracts (session, message index) from a community list.
func parseMsgID(comms []uint32) (session, k int, ok bool) {
	for _, c := range comms {
		if isMsgID(c) {
			return int(c >> 26 & 1), int(c & msgIDMask), true
		}
	}
	return 0, 0, false
}

// ---- preloaded archive ----

// zipfCDF is the cumulative popularity of ranks 0..n-1 under s=1.2.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -1.2)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func pickZipf(cdf []float64, h uint64) int {
	u := float64(h>>11) / (1 << 53)
	return sort.SearchFloat64s(cdf, u)
}

// preloadPrefix maps a popularity rank to its prefix: 32.x.y.0/24, the
// internal/workload address plan.
func preloadPrefix(rank int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{32, byte(rank >> 8), byte(rank), 0}), 24)
}

// Preload describes the seeded archive a workload boots over.
type Preload struct {
	Seed    int64
	Records int
	cdf     []float64
}

func newPreload(seed int64, records int) *Preload {
	return &Preload{Seed: seed, Records: records, cdf: zipfCDF(preloadPrefixes)}
}

// Time returns record i's timestamp.
func (p *Preload) Time(i int) time.Time {
	return preloadBase.Add(time.Duration(i/preloadPerSec) * time.Second)
}

// Span returns [first, last+1s) of the preloaded timestamps.
func (p *Preload) Span() (time.Time, time.Time) {
	return preloadBase, p.Time(p.Records - 1).Add(time.Second)
}

// Rank returns record i's prefix popularity rank.
func (p *Preload) Rank(i int) int {
	return pickZipf(p.cdf, hash3(p.Seed, 0x91, uint64(i)))
}

// Update returns preloaded record i as a canonical update.
func (p *Preload) Update(i int) *update.Update {
	h := hash3(p.Seed, 0x92, uint64(i))
	vp := preloadAS0 + int(h%preloadVPs)
	u := &update.Update{
		VP:     "vp" + itoa(vp),
		Time:   p.Time(i),
		Prefix: preloadPrefix(p.Rank(i)),
	}
	if h>>8%20 == 0 {
		u.Withdraw = true
		return u
	}
	hops := 2 + int(h>>16%4)
	u.Path = append(make([]uint32, 0, hops+1), uint32(vp))
	for j := 0; j < hops; j++ {
		u.Path = append(u.Path, 100+uint32(hash3(p.Seed, uint64(i), uint64(j))%5000))
	}
	if h>>24%3 == 0 {
		u.Comms = []uint32{uint32(vp)<<16 | uint32(h>>32%500)}
	}
	return u
}

// Record renders preloaded record i as the BGP4MP record the daemon's
// archive stage would have written for it.
func (p *Preload) Record(i int) *mrt.Record {
	u := p.Update(i)
	as := uint32(preloadAS0 + int(hash3(p.Seed, 0x92, uint64(i))%preloadVPs))
	peer := netip.AddrFrom4([4]byte{10, 0, byte(as >> 8), byte(as)})
	msg := &bgp.Update{}
	if u.Withdraw {
		msg.Withdrawn = []netip.Prefix{u.Prefix}
	} else {
		msg.Origin = bgp.OriginIGP
		msg.ASPath = u.Path
		for _, c := range u.Comms {
			msg.Communities = append(msg.Communities, bgp.Community(c))
		}
		msg.NLRI = []netip.Prefix{u.Prefix}
		msg.NextHop = peer
	}
	return &mrt.Record{
		Header: mrt.Header{Timestamp: u.Time, Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeBGP4MPMessageAS4},
		BGP4MP: &mrt.BGP4MPMessage{
			PeerAS: as, LocalAS: 65000, PeerIP: peer,
			LocalIP: netip.AddrFrom4([4]byte{192, 0, 2, 1}), Message: msg,
		},
	}
}

// ---- live traffic ----

// Msg is one UPDATE a session sends, with the canonical updates the
// daemon should derive from it (announcements first, then withdrawals,
// the daemon's NLRI order).
type Msg struct {
	Due     time.Duration // offset from the window start (open loop only)
	Update  *bgp.Update
	Prefix  []netip.Prefix
	Withdrw bool
}

// Source produces one session's message sequence.
type Source interface {
	// Msg returns message k; ok is false past the end of an open-loop
	// schedule (closed-loop sources never end).
	Msg(k int) (m Msg, ok bool)
}

// tableSource is one table-transfer session: round after round of a full
// table of distinct prefixes, packed 1–8 NLRI per UPDATE as table dumps
// group prefixes sharing attributes. Round r re-announces the table with
// fresh paths, so the adj-RIB-in working set stays the table size.
type tableSource struct {
	seed    int64
	session int
	starts  []int // first prefix of each message in a round
}

func newTableSource(seed int64, session int) *tableSource {
	t := &tableSource{seed: seed, session: session}
	for p := 0; p < tablePrefixes; {
		t.starts = append(t.starts, p)
		p += 1 + int(hash3(seed, 0xA0+uint64(session), uint64(p))%8)
	}
	return t
}

func tablePrefix(i int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{64 + byte(i>>16), byte(i >> 8), byte(i), 0}), 24)
}

func (t *tableSource) Msg(k int) (Msg, bool) {
	if k > int(msgIDMask) {
		return Msg{}, false
	}
	j := k % len(t.starts)
	lo, hi := t.starts[j], tablePrefixes
	if j+1 < len(t.starts) {
		hi = t.starts[j+1]
	}
	as := uint32(liveAS0 + t.session)
	h := hash3(t.seed, 0xB0+uint64(t.session), uint64(k))
	hops := 2 + int(h%4)
	path := append(make([]uint32, 0, hops+1), as)
	for i := 0; i < hops; i++ {
		path = append(path, 100+uint32(hash3(t.seed, uint64(k), 0xC0+uint64(i))%30000))
	}
	comms := []bgp.Community{bgp.Community(msgIDComm(t.session, k))}
	if h>>8%probeEvery == 0 {
		comms = append(comms, bgp.Community(probeComm))
	}
	m := Msg{Update: &bgp.Update{
		Origin: bgp.OriginIGP, ASPath: path, Communities: comms,
		NextHop: netip.AddrFrom4([4]byte{10, 0, byte(as >> 8), byte(as)}),
	}}
	for p := lo; p < hi; p++ {
		m.Update.NLRI = append(m.Update.NLRI, tablePrefix(p))
	}
	m.Prefix = m.Update.NLRI
	return m, true
}

// scheduleSource is an open-loop session: the internal/workload update
// mix (Zipf-popular prefixes, ~5% withdrawals), 1–2 NLRI per UPDATE, sent
// at the due times of a heavy-tailed on/off arrival process.
type scheduleSource struct{ msgs []Msg }

func (s *scheduleSource) Msg(k int) (Msg, bool) {
	if k >= len(s.msgs) {
		return Msg{}, false
	}
	return s.msgs[k], true
}

// newScheduleSource builds session's schedule: n messages due over
// window. half tags about half the announcements with halfComm.
func newScheduleSource(seed int64, session, prefixes, n int, window time.Duration, half bool) *scheduleSource {
	as := uint32(liveAS0 + session)
	raw := workload.Stream(workload.StreamConfig{
		UpdatesPerHour: workload.P99UpdatesPerHour,
		Prefixes:       prefixes,
		PeerAS:         as,
		Seed:           seed*7919 + int64(session),
	}, 2*n+2)
	due := Arrivals(seed*104729+int64(session), n, window)
	r := rand.New(rand.NewSource(seed*31 + int64(session)))
	s := &scheduleSource{msgs: make([]Msg, 0, n)}
	for i := 0; len(s.msgs) < n; i++ {
		u := *raw[i].Update
		k := len(s.msgs)
		withdraw := len(u.Withdrawn) > 0
		if !withdraw {
			// Merge the next announcement of another prefix into this
			// UPDATE about a third of the time: 1–2 NLRI per message.
			nx := raw[i+1].Update
			if r.Intn(3) == 0 && len(nx.NLRI) == 1 && nx.NLRI[0] != u.NLRI[0] {
				u.NLRI = []netip.Prefix{u.NLRI[0], nx.NLRI[0]}
				i++
			}
			comms := append([]bgp.Community{bgp.Community(msgIDComm(session, k))}, u.Communities...)
			if half && r.Intn(2) == 0 {
				comms = append(comms, bgp.Community(halfComm))
			}
			u.Communities = comms
		}
		m := Msg{Due: due[k], Update: &u, Withdrw: withdraw, Prefix: u.NLRI}
		if withdraw {
			m.Prefix = u.Withdrawn
		}
		s.msgs = append(s.msgs, m)
	}
	return s
}

// Arrivals returns n due times over [0, window): an on/off process whose
// ON and OFF periods are Pareto(α=1.4) with means of 40 ms and 80 ms —
// infinite variance, so counts stay bursty at every time scale (long
// memory, as in BGP update dynamics) — with Poisson arrivals while ON.
// The sequence is then rescaled so the n-th arrival lands at the window's
// end: the realised mean rate is exactly n/window.
func Arrivals(seed int64, n int, window time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	const alpha = 1.4
	pareto := func(mean float64) float64 {
		xm := mean * (alpha - 1) / alpha
		v := xm / math.Pow(1-r.Float64(), 1/alpha)
		return math.Min(v, 40*mean) // truncate: one period never eats the run
	}
	const meanOn, meanOff = 0.040, 0.080 // seconds
	rateOn := float64(n) / window.Seconds() * (meanOn + meanOff) / meanOn
	ts := make([]float64, 0, n)
	t := 0.0
	for len(ts) < n {
		end := t + pareto(meanOn)
		for len(ts) < n {
			t += r.ExpFloat64() / rateOn
			if t >= end {
				t = end
				break
			}
			ts = append(ts, t)
		}
		t += pareto(meanOff)
	}
	scale := window.Seconds() / ts[n-1] * float64(n-1) / float64(n)
	out := make([]time.Duration, n)
	for i, v := range ts {
		out[i] = time.Duration(v * scale * float64(time.Second))
	}
	return out
}

// filterFor builds live-bursty's filter set. Prefixes go in pairs of
// adjacent popularity ranks; for each pair the seed picks which of the
// two session 0 drops, and session 1 drops the other. Each session loses
// half its slots, and since the sessions draw from one popularity curve,
// the filter drops half the offered traffic whatever the seed.
func filterFor(seed int64, prefixes int) *filter.Set {
	fs := filter.NewSet(filter.GranVPPrefix)
	for i := 0; i+1 < prefixes; i += 2 {
		a, b := i, i+1
		if hash3(seed, 0xD0, uint64(i))&1 == 0 {
			a, b = b, a
		}
		fs.AddDropVPPrefix("vp"+itoa(liveAS0), preloadPrefix(a))
		fs.AddDropVPPrefix("vp"+itoa(liveAS0+1), preloadPrefix(b))
	}
	return fs
}

// canonical expands message m of session into the canonical updates the
// daemon derives from it, in the daemon's order.
func canonical(session int, m Msg) []*update.Update {
	vp := "vp" + itoa(liveAS0+session)
	out := make([]*update.Update, 0, len(m.Prefix))
	if m.Withdrw {
		for _, p := range m.Prefix {
			out = append(out, &update.Update{VP: vp, Prefix: p, Withdraw: true})
		}
		return out
	}
	comms := make([]uint32, len(m.Update.Communities))
	for i, c := range m.Update.Communities {
		comms[i] = uint32(c)
	}
	for _, p := range m.Prefix {
		out = append(out, &update.Update{VP: vp, Prefix: p, Path: m.Update.ASPath, Comms: comms})
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
