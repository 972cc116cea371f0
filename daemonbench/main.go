// Command daemonbench is the repository's end-to-end benchmark. It drives
// a gill-daemon built from the tree under test, as an operator would run
// it, with BGP sessions over loopback, a /stream subscriber and a query
// client; verifies every output; and prints one JSON result line. With
// -trace 1 it adds a traced run of the same layers assembled in-process
// and reports the per-layer table instead of the end-to-end metrics.
//
//	daemonbench -daemon <gill-daemon binary> -workload table-transfer \
//	    -seed 1 -seconds 10 -trace 0
//
// run.sh builds both binaries and passes -daemon; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/filter"
	"repro/internal/index"
)

// Workload is one traffic mix; see README.md for why each exists.
type Workload struct {
	Name string
	// Segments is the size of the preloaded archive, in sealed journal
	// segments of archive.DefaultJournalRotation records.
	Segments int
	Sessions int
	// Closed selects the closed-loop table transfer; otherwise sessions
	// run open-loop at Rate messages/s each.
	Closed bool
	Rate   float64
	// Filter installs a filter file dropping about half the live slots.
	Filter bool
	// Stream is the subscriber's filter expression.
	Stream  string
	Queries bool
}

// closedLoopBound caps the canonical updates in flight in table-transfer,
// far below the daemon's default 4096-update pipeline queue (1024 per
// shard across its 4 shards), so an overflow cannot come from the
// benchmark. It is also small next to the updates a seal stall holds up,
// so most updates never meet a stall and the stream latency's median and
// tail measure different things.
const closedLoopBound = 512

var workloads = []Workload{
	{Name: "table-transfer", Segments: 200, Sessions: 2, Closed: true,
		Stream: fmt.Sprintf("community=%d:%d", probeComm>>16, probeComm&0xFFFF)},
	{Name: "live-bursty", Segments: 4, Sessions: 2, Rate: 3750, Filter: true,
		Stream: fmt.Sprintf("community=%d:%d", halfComm>>16, halfComm&0xFFFF)},
	{Name: "query-mix", Segments: 200, Sessions: 1, Rate: 3000, Queries: true},
}

// tableRounds is how many full tables each table-transfer session has
// encoded before the window: 655,360 updates, twice what a session sends
// in 15 s at the seed.
const tableRounds = 10

// Each run starts the daemon 3 to 9 times; setup_s is the median.
const minBoots, maxBoots = 3, 9

func main() {
	var (
		daemonBin = flag.String("daemon", "", "gill-daemon binary built from the tree under test")
		wlName    = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 10, "length of the timed window")
		trace     = flag.Int("trace", 0, "1: report the per-layer table (adds the traced in-process run)")
		workDir   = flag.String("work", ".bench_build/daemonbench", "scratch and report directory")
		srcRoot   = flag.String("src", ".", "root of the tree under test (for provenance)")
	)
	flag.Parse()
	var wl *Workload
	for i := range workloads {
		if workloads[i].Name == *wlName {
			wl = &workloads[i]
		}
	}
	if wl == nil || *daemonBin == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: daemonbench -daemon BIN -workload table-transfer|live-bursty|query-mix -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := run(wl, *daemonBin, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workDir, *srcRoot); err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		os.Exit(1)
	}
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func run(wl *Workload, daemonBin string, seed int64, window time.Duration, traced bool, workDir, srcRoot string) error {
	runDir := filepath.Join(workDir, fmt.Sprintf("run-%s-%d-%d", wl.Name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	t0 := time.Now()
	in, err := prepare(wl, seed, window, runDir)
	if err != nil {
		return err
	}
	phase("prepare", t0)
	bin := &binarySystem{bin: daemonBin, args: in.daemonArgs, logDir: runDir}
	res, err := drive(wl, in, bin, minBoots, maxBoots)
	if err != nil {
		return err
	}
	report := map[string]any{
		"workload":   wl.Name,
		"seed":       seed,
		"seconds":    window.Seconds(),
		"provenance": provenance(srcRoot, seed),
		"binary":     res,
	}
	out := Result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]Metric{}}
	if !traced {
		for name, m := range res.E2E {
			out.Metrics[name] = m
		}
	} else {
		// The traced run boots over a fresh copy of the same inputs.
		in2, err := prepare(wl, seed, window, filepath.Join(runDir, "traced"))
		if err != nil {
			return err
		}
		ts := newTracedSystem(in2)
		tres, err := drive(wl, in2, ts, 1, 1)
		if err != nil {
			return err
		}
		spansPath := filepath.Join(workDir, "reports", fmt.Sprintf("%s-%d-spans.csv.gz", wl.Name, seed))
		layers, err := ts.layerTable(in2, tres.logs, tres.start, spansPath)
		if err != nil {
			return err
		}
		report["traced"] = tres
		report["spans"] = spansPath
		for name, m := range res.Layers {
			out.Metrics[name] = m
		}
		for name, m := range layers {
			out.Metrics[name] = m
		}
		over, alarm := traceOverhead(wl, res, tres)
		out.Metrics["harness.trace_overhead_frac"] = Metric{over, "ratio"}
		if alarm {
			fmt.Fprintf(os.Stderr, "daemonbench: DRIFT ALARM: the traced in-process assembly differs from gill-daemon by %.0f%%; re-check it against cmd/gill-daemon\n", 100*over)
		}
		out.Correct = out.Correct && tres.Correct
		out.Attempted += tres.Attempted
		out.Failed += tres.Failed
	}
	report["result"] = out
	if err := writeReport(workDir, wl.Name, seed, traced, report); err != nil {
		return err
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	return nil
}

// inputs is everything generated before the daemon starts.
type inputs struct {
	walDir     string
	pre        *Preload
	fs         *filter.Set
	srcs       []Source
	wire       []*encoded // closed loop: each session's messages, encoded
	queries    []QueryReq
	refs       *queryRefs
	daemonArgs []string
	window     time.Duration
}

// prepare writes the preloaded archive (through archive.Journal and
// index, untimed) and the filter file, and generates the live traffic.
func prepare(wl *Workload, seed int64, window time.Duration, dir string) (*inputs, error) {
	in := &inputs{walDir: filepath.Join(dir, "wal"), window: window}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in.pre = newPreload(seed, wl.Segments*archive.DefaultJournalRotation)
	if err := writePreload(in.walDir, in.pre); err != nil {
		return nil, err
	}
	in.daemonArgs = []string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-wal", in.walDir}
	if wl.Filter {
		in.fs = filterFor(seed, liveBurstyPrefixes)
		path := filepath.Join(dir, "filters.txt")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		err = in.fs.Marshal(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		in.daemonArgs = append(in.daemonArgs, "-filters", path)
	}
	for s := 0; s < wl.Sessions; s++ {
		if wl.Closed {
			src := newTableSource(seed, s)
			enc, err := preEncode(src, tableRounds*len(src.starts))
			if err != nil {
				return nil, err
			}
			in.srcs, in.wire = append(in.srcs, src), append(in.wire, enc)
			continue
		}
		n := int(wl.Rate * window.Seconds())
		in.srcs = append(in.srcs, newScheduleSource(seed, s, liveBurstyPrefixes, n, window, wl.Filter))
	}
	if wl.Queries {
		in.queries = queryMix(seed, in.pre, 512)
		in.refs = newQueryRefs(in.pre, in.queries)
	}
	return in, nil
}

func writePreload(dir string, pre *Preload) error {
	j, err := archive.OpenJournal(dir, archive.DefaultJournalRotation)
	if err != nil {
		return err
	}
	for i := 0; i < pre.Records; i++ {
		if err := j.Append(pre.Record(i)); err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	_, err = index.NewService(dir, nil) // writes index.json
	return err
}

// queryMix is the query client's seeded request list. Requests cycle
// through four classes — range query on a hot prefix, RIB of a hot
// prefix, range query on a cold prefix, RIB of a cold prefix — so range
// queries and RIB reconstructions alternate. Hot prefixes (popularity
// rank < 16) appear in every segment; cold ones (rank 1000–10000) in a
// handful. A range query asks for a 60 s window anywhere in the span. A
// RIB reconstruction of a cold prefix asks for any instant; one of a hot
// prefix must replay every segment before its instant, so those ask
// within the first tenth of the span. Instants follow a seeded
// golden-ratio sequence, which spreads any run of consecutive requests
// evenly over their range: how much reading a run does then hardly
// depends on the seed, and neither does the ingest latency beside it.
func queryMix(seed int64, pre *Preload, n int) []QueryReq {
	first, end := pre.Span()
	span := float64(end.Unix() - first.Unix())
	u := float64(hash3(seed, 0xE1, 0)>>11) / (1 << 53)
	out := make([]QueryReq, 0, n)
	for i := 0; i < n; i++ {
		h := hash3(seed, 0xE0, uint64(i))
		hot := i%4 < 2
		rank := int(h % 16)
		if !hot {
			rank = 1000 + int(h%9000)
		}
		q := QueryReq{RIB: i%2 == 1, Prefix: preloadPrefix(rank)}
		frac := math.Mod(u+float64(i/4)*0.6180339887498949, 1)
		if q.RIB {
			if hot {
				frac /= 10
			}
			q.At = first.Unix() + int64(frac*span)
		} else {
			q.From = first.Unix() + int64(frac*(span-60))
			q.To = q.From + 60
		}
		out = append(out, q)
	}
	return out
}

func writeReport(workDir, name string, seed int64, traced bool, report map[string]any) error {
	dir := filepath.Join(workDir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if traced {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", name, seed, t, time.Now().UnixNano()))
	fmt.Fprintln(os.Stderr, "daemonbench: report", path)
	return os.WriteFile(path, b, 0o644)
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

// quantile is the nearest-rank quantile of durations, in ms.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / 1e6
}
