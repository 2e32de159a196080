package zeek

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// corpusBytes loads the first []byte argument of one checked-in fuzz
// corpus file ("go test fuzz v1" format).
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) < 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestFuzzCorpusCoversEveryReason pins the seed corpora to the
// quarantine taxonomy: every parse-level rejection reason must be
// triggered by at least one checked-in seed, so the fuzzers (and the CI
// smoke run over the same corpora) exercise each branch of the
// malformed-row handling from the first execution. RejectOversizedLine
// is a tailer-only condition with no batch-parser analogue; its
// dedicated regression test is TestTailOversizedLinePermissive.
func TestFuzzCorpusCoversEveryReason(t *testing.T) {
	reg := metrics.New()
	feed := func(dir, header string, read func(string, ...Opt) error) {
		paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("no corpus files under testdata/fuzz/%s", dir)
		}
		for _, p := range paths {
			input := header + string(corpusBytes(t, p))
			if err := read(input, Permissive(), WithMetrics(reg)); err != nil {
				t.Fatalf("%s: permissive read failed: %v", p, err)
			}
		}
	}
	feed("FuzzParseSSLRow", "#path\tssl\n", func(in string, opts ...Opt) error {
		return ForEachSSLBatch(strings.NewReader(in), func([]SSLRecord) error { return nil }, opts...)
	})
	feed("FuzzParseX509Row", "#path\tx509\n", func(in string, opts ...Opt) error {
		return ForEachX509Batch(strings.NewReader(in), func([]X509Record) error { return nil }, opts...)
	})

	_, byReason := RejectTotals(reg)
	covered := map[Reason]bool{}
	for key := range byReason {
		if _, reason, ok := strings.Cut(key, "/"); ok {
			covered[Reason(reason)] = true
		}
	}
	var missing []string
	for _, r := range Reasons {
		if r == RejectOversizedLine {
			continue
		}
		if !covered[r] {
			missing = append(missing, string(r))
		}
	}
	if len(missing) > 0 {
		t.Fatalf("no fuzz seed triggers reason(s) %v; add corpus files under testdata/fuzz/", missing)
	}
}

// TestQuarantineFile pins the quarantine sink's on-disk format: a
// versioned header and one escaped TSV line per rejected row, safe to
// re-read line by line even when the raw row contained tabs or newlines.
func TestQuarantineFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "quarantine.log")
	q, err := OpenQuarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()

	input := "#path\tssl\nnot\tenough\tfields\n" +
		"NaN\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\ta.com\tT\t-\t-\t1\n"
	var rows int
	if err := ForEachSSLBatch(strings.NewReader(input), func(recs []SSLRecord) error {
		rows += len(recs)
		return nil
	}, Permissive(), WithQuarantine(q), WithMetrics(reg)); err != nil {
		t.Fatalf("permissive read: %v", err)
	}
	if rows != 0 || q.Count() != 2 {
		t.Fatalf("rows = %d, quarantined = %d; want 0 and 2", rows, q.Count())
	}
	if err := q.Err(); err != nil {
		t.Fatalf("quarantine sink error: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	want := []string{
		"#quarantine\tv1",
		"#fields\tsource\tline\treason\traw",
		fmt.Sprintf("ssl\t2\t%s\t%s", RejectFieldCount, escapeField("not\tenough\tfields")),
		fmt.Sprintf("ssl\t3\t%s\t%s", RejectTimestamp,
			escapeField("NaN\tC1\t10.0.0.1\t52000\t10.0.0.2\t443\tTLSv12\ta.com\tT\t-\t-\t1")),
	}
	if len(lines) != len(want) {
		t.Fatalf("quarantine has %d lines, want %d:\n%s", len(lines), len(want), raw)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("quarantine line %d = %q, want %q", i, lines[i], want[i])
		}
	}

	total, byReason := RejectTotals(reg)
	if total != 2 {
		t.Fatalf("RejectTotals = %d, want 2", total)
	}
	if byReason["ssl/"+string(RejectFieldCount)] != 1 || byReason["ssl/"+string(RejectTimestamp)] != 1 {
		t.Fatalf("byReason = %v", byReason)
	}
}
