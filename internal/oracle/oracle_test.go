package oracle

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// explored is the seeded explorer's fixed list. Together the lines take
// every dimension value and every op (TestExplorerCovers checks it), and
// every combination of sensors 1–4 × store × retention 0 or not × policy.
var explored = []string{
	// One sensor: the engine is held to the reference bare, too.
	"seed=1 scale=4000 spec=campus sensors=1 split=contig store=memory ret=0 policy=block batch=64 order=certs-first sync=poll ops=read@250,read@500,read@750,end",
	"seed=2 scale=8000 spec=campus sensors=1 split=contig store=memory ret=0 policy=drop batch=16 order=perm:3 sync=poll ops=read@500,ck@600,kill@700,restore:conns-first,end",
	"seed=1 scale=4000 spec=campus sensors=1 split=contig store=memory ret=7 policy=block batch=128 order=conns-first sync=poll ops=ck@100,ck@200,ck@300,ck@400,ck@500,ck@600,ck@700,ck@800,ck@900,kill@950,restore:chunk:32:64,end",
	"seed=2 scale=8000 spec=campus sensors=1 split=contig store=memory ret=14 policy=drop batch=256 order=chunk:8:32 sync=follow ops=read@400,sync@500,crash:rename@600,restore:perm:5,sync@800,end",
	"seed=3 scale=4000 spec=cohorts sensors=1 split=contig store=disk ret=0 policy=block batch=32 order=perm:1 sync=poll ops=ck@300,crash:write@500,restore:certs-first,read@700,end",
	"seed=2 scale=8000 spec=campus sensors=1 split=contig store=disk ret=0 policy=drop batch=8 order=conns-first sync=follow ops=sync@300,ck@400,sync@600,kill@650,restore:certs-first,sync,end",
	"seed=1 scale=4000 spec=campus sensors=1 split=contig store=disk ret=7 policy=block batch=64 order=chunk:16:8 sync=poll ops=ck@250,ck@500,crash:create:compact@600,restore,end",
	"seed=2 scale=8000 spec=campus sensors=1 split=contig store=disk ret=7 policy=drop batch=64 order=certs-first sync=poll ops=fresh@500,read@800,end",
	// Two sensors.
	"seed=7 scale=4000 spec=campus sensors=2 split=rr store=memory ret=0 policy=block batch=64 order=chunk:16:8 sync=poll ops=read@200,ck@300,sync@400,kill@450,restore:certs-first,sync,end",
	"seed=2 scale=8000 spec=campus sensors=2 split=contig store=memory ret=0 policy=drop batch=4 order=perm:10 sync=follow ops=sync@250,sync@500,fresh.0@600,sync@800,end",
	"seed=1 scale=4000 spec=campus sensors=2 split=contig store=memory ret=7 policy=block batch=64 order=certs-first sync=poll ops=sync@300,sync@600,read@800,end",
	"seed=2 scale=8000 spec=campus sensors=2 split=rr store=memory ret=14 policy=drop batch=32 order=conns-first sync=follow ops=ck@300,sync@500,crash.1:sync@550,restore.1:chunk:4:4,sync,end",
	"seed=3 scale=4000 spec=cohorts sensors=2 split=rr store=disk ret=0 policy=block batch=64 order=conns-first sync=poll ops=sync@200,ck@400,compact@450,sync@600,kill.0@650,restore.0:perm:13,sync,end",
	"seed=2 scale=8000 spec=campus sensors=2 split=contig store=disk ret=0 policy=drop batch=2 order=chunk:64:16 sync=poll ops=read@300,crash:close@500,sync@600,restore,sync@900,end",
	"seed=1 scale=4000 spec=campus sensors=2 split=rr store=disk ret=7 policy=block batch=64 order=perm:15 sync=follow ops=sync@300,ck@400,sync@700,kill.1@750,restore.1,sync,end",
	"seed=2 scale=8000 spec=campus sensors=2 split=contig store=disk ret=14 policy=drop batch=64 order=certs-first sync=poll ops=ck@200,ck@400,crash:syncdir@500,restore:conns-first,sync@700,end",
	// Three sensors.
	"seed=3 scale=4000 spec=cohorts sensors=3 split=contig store=memory ret=0 policy=block batch=64 order=perm:17 sync=poll ops=sync@250,sync@500,sync@750,end",
	"seed=2 scale=8000 spec=campus sensors=3 split=rr store=memory ret=0 policy=drop batch=16 order=certs-first sync=follow ops=ck@400,sync@500,kill.2@600,restore.2:conns-first,sync,end",
	"seed=1 scale=4000 spec=campus sensors=3 split=contig store=memory ret=7 policy=block batch=64 order=perm:9 sync=poll ops=ck@300,sync@400,crash.1:syncdir@500,restore.1,sync@700,end",
	"seed=2 scale=8000 spec=campus sensors=3 split=rr store=memory ret=14 policy=drop batch=128 order=chunk:2:1 sync=poll ops=sync@300,fresh@500,sync@700,end",
	"seed=1 scale=4000 spec=campus sensors=3 split=rr store=disk ret=0 policy=block batch=64 order=certs-first sync=follow ops=ck@200,sync@300,kill.1@350,sync@400,restore.1:conns-first,sync@600,end",
	"seed=2 scale=8000 spec=campus sensors=3 split=contig store=disk ret=0 policy=drop batch=32 order=conns-first sync=poll ops=ck@300,crash:rename:compact@500,restore,sync@800,end",
	"seed=1 scale=4000 spec=campus sensors=3 split=rr store=disk ret=7 policy=block batch=64 order=chunk:32:32 sync=poll ops=read@300,sync@500,ck@600,crash:create@700,restore:perm:23,sync,end",
	"seed=4 scale=8000 spec=cohorts sensors=3 split=contig store=disk ret=14 policy=drop batch=64 order=perm:24 sync=follow ops=sync@400,kill@600,restore,sync@800,end",
	// Four sensors.
	"seed=1 scale=4000 spec=campus sensors=4 split=contig store=memory ret=0 policy=block batch=64 order=conns-first sync=poll ops=sync@500,end",
	"seed=2 scale=8000 spec=campus sensors=4 split=rr store=memory ret=0 policy=drop batch=8 order=chunk:16:64 sync=poll ops=read@300,sync@600,ck@700,kill.3@750,restore.3,sync,end",
	"seed=1 scale=4000 spec=campus sensors=4 split=rr store=memory ret=7 policy=block batch=64 order=perm:27 sync=follow ops=sync@250,sync@500,sync@750,end",
	"seed=2 scale=8000 spec=campus sensors=4 split=contig store=memory ret=14 policy=drop batch=64 order=certs-first sync=poll ops=ck@300,crash:write:compact@400,restore,sync@700,end",
	"seed=3 scale=4000 spec=cohorts sensors=4 split=rr store=disk ret=0 policy=block batch=64 order=chunk:8:8 sync=poll ops=ck@200,sync@400,fresh.1:perm:29@500,sync@700,ck@800,crash.2:close@850,restore.2,sync,end",
	"seed=2 scale=8000 spec=campus sensors=4 split=contig store=disk ret=0 policy=drop batch=64 order=perm:30 sync=follow ops=ck@300,sync@450,kill@500,restore,sync@700,end",
	"seed=1 scale=4000 spec=campus sensors=4 split=contig store=disk ret=7 policy=block batch=64 order=conns-first sync=poll ops=ck@500,crash:sync:compact@600,restore:certs-first,sync,end",
	"seed=2 scale=8000 spec=campus sensors=4 split=rr store=disk ret=14 policy=drop batch=256 order=chunk:1:4 sync=poll ops=sync@300,ck@500,sync@600,kill@650,restore:perm:32,sync,end",
}

// TestExplore runs the fixed list, in parallel (Test).
func TestExplore(t *testing.T) {
	for i, line := range explored {
		t.Run(fmt.Sprintf("%02d", i), func(t *testing.T) { Test(t, line) })
	}
}

// corpus reads testdata/programs.txt: every program that ever failed,
// one a line; # starts a comment.
func corpus(t testing.TB) []string {
	f, err := os.Open("testdata/programs.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestCorpus replays every program that ever failed.
func TestCorpus(t *testing.T) {
	for i, line := range corpus(t) {
		t.Run(fmt.Sprintf("%02d", i), func(t *testing.T) { Test(t, line) })
	}
}

// FuzzOracle explores the program encoding: a line that parses is a
// program, and every program must hold.
func FuzzOracle(f *testing.F) {
	f.Add("seed=5 scale=8000 sensors=2 split=rr policy=drop batch=8 order=perm:5 ops=ck@300,sync@400,kill@450,restore,sync")
	f.Fuzz(func(t *testing.T, line string) {
		p, err := Parse(line)
		if err != nil {
			return
		}
		runProgram(t, p)
	})
}

// TestProgramRoundTrip: a line parses to a program whose canonical line is
// itself, and bad lines are refused.
func TestProgramRoundTrip(t *testing.T) {
	for _, line := range append(explored, corpus(t)...) {
		p, err := Parse(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if got := p.String(); got != line {
			t.Errorf("not canonical:\n\t%s\n\t%s", line, got)
		}
		if q, err := Parse(p.String()); err != nil || !reflect.DeepEqual(p, q) {
			t.Errorf("%s: does not round-trip (%v)", line, err)
		}
	}
	for _, bad := range []string{
		"sensors=5", "sensors=0", "seed=1 seed=2", "color=red", "order=chunk:3", "order=perm",
		"ops=crash:fsync", "ops=kill.2", "ops=read@1001", "ops=end,read", "ops=sync:x", "batch=0", "scale=10",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

// TestExplorerCovers checks the fixed list against the program space:
// every value of every dimension, every op and crash stage, and every
// combination of sensors × store × retention × policy.
func TestExplorerCovers(t *testing.T) {
	have := map[string]bool{}
	for _, line := range explored {
		p, err := Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		have[fmt.Sprintf("combo %d/%s/%t/%s", p.Sensors, p.Store, p.Ret > 0, p.Policy)] = true
		for _, v := range []string{"spec " + p.Spec, "split " + p.Split, "sync " + p.Sync, "order " + p.Order.Kind} {
			have[v] = true
		}
		if p.Batch < 8 {
			have["batch small"] = true
		}
		if p.Batch > 64 {
			have["batch large"] = true
		}
		ckAt, servedAt, killedAt := -1, -1, -1
		for i, op := range p.Ops {
			have["op "+op.Name] = true
			if op.Sensor >= 0 {
				have["one sensor"] = true
			}
			switch op.Name {
			case "crash":
				have[fmt.Sprintf("crash %s compact=%t", op.Stage, op.Compact)] = true
			case "restore", "fresh":
				have[fmt.Sprintf("%s order=%t", op.Name, op.Order != nil)] = true
			}
			// serve → kill → re-read: a sync past a checkpoint, then a kill
			// without one, then a restore and a sync.
			switch {
			case op.Name == "ck":
				ckAt = i
			case op.Name == "sync" && ckAt >= 0 && killedAt < 0:
				servedAt = i
			case (op.Name == "kill" || op.Name == "crash") && servedAt >= 0:
				killedAt = i
			case op.Name == "sync" && killedAt >= 0 && count(p.Ops[killedAt:i], "restore") > 0:
				have["serve-kill-reread "+p.Sync] = true
			}
		}
		if count(p.Ops, "ck") > 8 {
			have["auto-compaction"] = true // an engine folds its chain after eight commits
		}
	}
	var want []string
	for n := 1; n <= 4; n++ {
		for _, store := range stores {
			for _, ret := range []bool{false, true} {
				for _, policy := range policies {
					want = append(want, fmt.Sprintf("combo %d/%s/%t/%s", n, store, ret, policy))
				}
			}
		}
	}
	for _, v := range specs {
		want = append(want, "spec "+v)
	}
	for _, v := range splits {
		want = append(want, "split "+v)
	}
	for _, v := range syncs {
		want = append(want, "sync "+v)
	}
	for _, kind := range []string{"certs-first", "conns-first", "chunk", "perm"} {
		want = append(want, "order "+kind)
	}
	for _, name := range opNames {
		want = append(want, "op "+name)
	}
	for _, stage := range stages {
		want = append(want, fmt.Sprintf("crash %s compact=false", stage))
	}
	want = append(want, "crash create compact=true", "crash rename compact=true",
		"restore order=true", "restore order=false", "fresh order=true", "fresh order=false",
		"one sensor", "batch small", "batch large", "auto-compaction",
		"serve-kill-reread poll", "serve-kill-reread follow")
	for _, w := range want {
		if !have[w] {
			t.Errorf("the explorer's list never takes %s", w)
		}
	}
}

func count(ops []Op, name string) int {
	n := 0
	for _, op := range ops {
		if op.Name == name {
			n++
		}
	}
	return n
}
