package arena

import (
	"fmt"
	"testing"
)

// TestCutKeepsValues holds every cut string to its bytes after the
// source buffer is reused and many blocks have filled.
func TestCutKeepsValues(t *testing.T) {
	for _, a := range []*Strings{nil, new(Strings)} {
		var got, want []string
		buf := make([]byte, 0, 64)
		for i := 0; i < 5000; i++ {
			buf = fmt.Appendf(buf[:0], "value-%d", i)
			got = append(got, a.Cut(buf))
			want = append(want, string(buf))
		}
		long := make([]byte, strBlock)
		got, want = append(got, a.Cut(long)), append(want, string(long))
		got, want = append(got, a.Cut(nil)), append(want, "")
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("nil=%v: value %d = %q, want %q", a == nil, i, got[i], want[i])
			}
		}
	}
}

// TestListsDoNotOverlap appends to each list up to its room and checks
// no list wrote into another.
func TestListsDoNotOverlap(t *testing.T) {
	for _, a := range []*Strings{nil, new(Strings)} {
		var lists [][]string
		for i := 0; i < 3000; i++ {
			n := 1 + i%3
			l := a.List(n)
			if len(l) != 0 || cap(l) != n {
				t.Fatalf("List(%d): len %d cap %d", n, len(l), cap(l))
			}
			for j := 0; j < n; j++ {
				l = append(l, fmt.Sprint(i, "/", j))
			}
			lists = append(lists, l)
		}
		for i, l := range lists {
			for j, s := range l {
				if want := fmt.Sprint(i, "/", j); s != want {
					t.Fatalf("nil=%v: list %d[%d] = %q, want %q", a == nil, i, j, s, want)
				}
			}
		}
		if l := a.List(listBlock); cap(l) != listBlock {
			t.Fatalf("List(%d): cap %d", listBlock, cap(l))
		}
	}
}
