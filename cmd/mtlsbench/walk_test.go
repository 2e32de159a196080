package main

import (
	"errors"
	"testing"
	"time"
)

func spin(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

// TestSelfTimesSumToRoot: a span's self time excludes its children, so
// the self times of the whole tree add up to the root's duration, and
// spans of one name fold into one table row.
func TestSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	err := tr.do("root", func() (int64, error) {
		spin(time.Millisecond)
		for i := 0; i < 3; i++ {
			_ = tr.do("leaf", func() (int64, error) { spin(time.Millisecond); return 10, nil })
		}
		return 0, tr.do("mid", func() (int64, error) {
			return 1, tr.do("leaf", func() (int64, error) { spin(time.Millisecond); return 10, nil })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var self time.Duration
	for _, r := range tr.table() {
		self += r.Self
		if r.Self < 0 || r.Self > r.Total {
			t.Errorf("%s: self %v outside [0, total %v]", r.Name, r.Self, r.Total)
		}
	}
	root := tr.row("root")
	if self != root.Total {
		t.Errorf("self times sum to %v, root span lasted %v", self, root.Total)
	}
	if leaf := tr.row("leaf"); leaf.Calls != 4 || leaf.Count != 40 || leaf.Self != leaf.Total {
		t.Errorf("leaf row = %+v, want 4 calls, count 40, self == total", leaf)
	}
	if root.Self >= root.Total || tr.row("mid").Self >= tr.row("mid").Total {
		t.Error("a parent's self time does not exclude its children")
	}
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if parents["root"] != 0 || parents["mid"] != 1 || parents["leaf"] != 5 {
		t.Errorf("parent ids wrong: %v", parents)
	}
}

func TestTracerOffRecordsNothingAndPassesErrors(t *testing.T) {
	tr := &tracer{off: true}
	boom := errors.New("boom")
	if err := tr.do("x", func() (int64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("error not passed through: %v", err)
	}
	if len(tr.spans) != 0 {
		t.Errorf("tracer that is off recorded %d spans", len(tr.spans))
	}
	on := newTracer()
	if err := on.do("x", func() (int64, error) { return 0, boom }); !errors.Is(err, boom) || len(on.spans) != 1 || len(on.stack) != 0 {
		t.Errorf("failing span: err %v, %d spans, stack %v", err, len(on.spans), on.stack)
	}
}
