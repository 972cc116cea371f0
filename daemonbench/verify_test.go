package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bgp"
	"repro/internal/mrt"
	"repro/internal/pipeline"
	"repro/internal/update"
)

// walFixture writes a small journal the way a run leaves it: a preloaded
// archive, then the retained live updates as the daemon's archive stage
// records them.
func walFixture(t *testing.T) (dir string, pre *Preload, run *liveRun, in *inputs) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "wal")
	pre = newPreload(5, 900)
	j, err := archive.OpenJournal(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pre.Records; i++ {
		if err := j.Append(pre.Record(i)); err != nil {
			t.Fatal(err)
		}
	}
	in = &inputs{fs: filterFor(5, liveBurstyPrefixes)}
	var sent []int
	for s := 0; s < 2; s++ {
		src := newScheduleSource(5, s, 200, 400, time.Second, true)
		in.srcs, sent = append(in.srcs, src), append(sent, len(src.msgs))
	}
	run = newLiveRun(in.srcs, sent)
	stage := &pipeline.ArchiveStage{LocalAS: 65000, Sink: j.Append}
	for k := 0; k < 400; k++ {
		for s, src := range run.srcs {
			m, _ := src.Msg(k)
			var batch []*update.Update
			for _, u := range canonical(s, m) {
				if in.fs.Keep(u) {
					u.Time = time.Unix(1_800_000_000+int64(k), 0)
					batch = append(batch, u)
				}
			}
			stage.Process(batch)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, pre, run, in
}

// frames returns every record payload of the journal in write order.
func frames(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := archive.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, s := range segs {
		if _, _, err := archive.ScanSegment(s, func(p []byte) error {
			out = append(out, bytes.Clone(p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rewrite writes payloads as a fresh, correctly sealed journal: every
// corruption below survives the journal's own CRCs, so only the content
// checks can catch it.
func rewrite(t *testing.T, payloads [][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < len(payloads); i += 256 {
		w, err := archive.CreateSegment(filepath.Join(dir, "wal-"+strings.Repeat("0", 7)+itoa(i/256)+".seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads[i:min(i+256, len(payloads))] {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func decode(t *testing.T, p []byte) (*mrt.Record, *update.Update) {
	t.Helper()
	rec, err := mrt.NewReader(bytes.NewReader(p)).ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	return rec, rec.CanonicalUpdates()[0]
}

func TestCheckWALCatchesCorruption(t *testing.T) {
	dir, pre, run, in := walFixture(t)
	rep, err := CheckWAL(dir, pre, run, in.fs, 0)
	if err != nil {
		t.Fatalf("clean journal rejected: %v", err)
	}
	if rep.Archived == 0 || rep.Preloaded != uint64(pre.Records) {
		t.Fatalf("clean journal: %+v", rep)
	}
	good := frames(t, dir)
	if _, err := CheckWAL(rewrite(t, good), pre, run, in.fs, 0); err != nil {
		t.Fatalf("re-framed clean journal rejected: %v", err)
	}
	live := pre.Records + 10 // a live announcement well inside the run
	for _, u := decode(t, good[live]); u.Withdraw; _, u = decode(t, good[live]) {
		live++
	}
	// Two live records of one (VP, prefix) key.
	keyAt := map[string]int{}
	a, b := -1, -1
	for i := pre.Records; i < len(good) && a < 0; i++ {
		_, u := decode(t, good[i])
		k := u.VP + u.Prefix.String()
		if j, ok := keyAt[k]; ok {
			a, b = j, i
		}
		keyAt[k] = i
	}
	if a < 0 {
		t.Fatal("fixture has no repeated key")
	}
	corrupt := map[string]func([][]byte) [][]byte{
		"one frame dropped": func(f [][]byte) [][]byte { return append(f[:live:live], f[live+1:]...) },
		"one frame duplicated": func(f [][]byte) [][]byte {
			return append(append(f[:live+1:live+1], f[live]), f[live+1:]...)
		},
		"two same-key records swapped": func(f [][]byte) [][]byte {
			f = append([][]byte(nil), f...)
			f[a], f[b] = f[b], f[a]
			return f
		},
		"one AS path altered": func(f [][]byte) [][]byte {
			f = append([][]byte(nil), f...)
			rec, _ := decode(t, f[live])
			msg := rec.BGP4MP.Message.(*bgp.Update)
			msg.ASPath = append([]uint32(nil), msg.Path()...)
			msg.ASPath[len(msg.ASPath)-1]++
			out, err := mrt.AppendRecord(nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			f[live] = out
			return f
		},
		"one preloaded record dropped": func(f [][]byte) [][]byte { return append(f[:7:7], f[8:]...) },
	}
	for name, mutate := range corrupt {
		if _, err := CheckWAL(rewrite(t, mutate(good)), pre, run, in.fs, 0); err == nil {
			t.Errorf("%s: checker passed a corrupt journal", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
