package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/stream"
	"repro/internal/zeek"
)

// cohortSpec is a non-default scenario: an IoT fleet on shared
// certificates, an interception middlebox and a short-lived rotation
// grid, each with its own ClientHello fingerprint, so ssl.log carries
// the 14-column schema and the fingerprint report has rows.
const cohortSpec = `version: 1
seed: 7
aggregate_rate: 2000000
cohorts:
  - id: fleet
    profile: iot-shared-cert
    rate_fraction: 0.5
    arrival: constant
    lifecycle: diurnal
  - id: acme
    profile: enterprise-middlebox
    rate_fraction: 0.3
    lifecycle: spike
    start_month: 2
    end_month: 12
  - id: grid
    profile: rotation-wave
    rate_fraction: 0.2
    arrival: bursty
    lifecycle: drain
    fingerprint: chrome
`

// stormMarker tags the malformed rows so the quarantine can be audited
// for exactly them.
const stormMarker = "DAEMON-CHAOS-STORM"

// liveLogs appends to a log directory the way a capture pipeline writes
// it: whole rows, flushed per append, a header at the top of each file
// and again after a rotation or truncation empties it.
type liveLogs struct {
	dir      string
	extended bool // ssl.log's 14-column schema
	headered map[string]bool
}

// write appends what emit renders to file, telling emit whether the file
// still needs its header.
func (l *liveLogs) write(t *testing.T, file string, emit func(w io.Writer, header bool) error) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(l.dir, file), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := emit(f, !l.headered[file]); err != nil {
		t.Fatal(err)
	}
	l.headered[file] = true
}

func (l *liveLogs) conns(t *testing.T, recs []zeek.SSLRecord) {
	t.Helper()
	l.write(t, "ssl.log", func(f io.Writer, header bool) error {
		w := zeek.NewSSLWriter(f)
		w.Extended = l.extended
		if !header {
			w.SkipHeader()
		} else if err := w.WriteHeader(); err != nil {
			return err
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

func (l *liveLogs) certs(t *testing.T, recs []zeek.X509Record) {
	t.Helper()
	l.write(t, "x509.log", func(f io.Writer, header bool) error {
		w := zeek.NewX509Writer(f)
		if !header {
			w.SkipHeader()
		} else if err := w.WriteHeader(); err != nil {
			return err
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

// storm appends n rows with the wrong field count, each carrying the
// marker, to ssl.log.
func (l *liveLogs) storm(t *testing.T, n int) {
	t.Helper()
	l.write(t, "ssl.log", func(f io.Writer, _ bool) error {
		for i := 0; i < n; i++ {
			if _, err := fmt.Fprintf(f, "%s\tstorm\trow-%d\n", stormMarker, i); err != nil {
				return err
			}
		}
		return nil
	})
}

// rotate renames file to file.1, as logrotate's default mode does; the
// next append creates it again.
func (l *liveLogs) rotate(t *testing.T, file string) {
	t.Helper()
	path := filepath.Join(l.dir, file)
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	l.headered[file] = false
}

// copyTruncate copies file to file.1 and truncates it in place, as
// logrotate's copytruncate mode does: the inode stays, the size drops
// below the tailer's offset.
func (l *liveLogs) copyTruncate(t *testing.T, file string) {
	t.Helper()
	path := filepath.Join(l.dir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".1", data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	l.headered[file] = false
}

// waitDrained waits until the daemon at base has applied conns
// connections and certs certificates and has no tail lag on either log.
func waitDrained(t *testing.T, base string, conns, certs uint64) daemonStats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := waitConns(t, base, conns)
		if st.CertsIngested >= certs && st.TailLag["ssl"]+st.TailLag["x509"] == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained: certs %d/%d, lag %v", st.CertsIngested, certs, st.TailLag)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricSum sums every sample of the series name (all label sets when
// name has none) in a /metrics scrape; found is false when none exists.
func metricSum(scrape, name string) (sum float64, found bool) {
	for _, line := range strings.Split(scrape, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum, found = sum+v, true
		}
	}
	return sum, found
}

// TestDaemonChaos is the daemon under the faults a Zeek deployment deals
// it, on each store and on a fingerprinted spec: rows are appended in
// chunks while a storm of malformed rows lands (20 %), ssl.log is
// rename-rotated without quiescing (35 %), x509.log is copytruncated in
// place (50 %), and the daemon is shut down and restarted onto its
// checkpoint (65 %). The drained daemon must have applied every row
// exactly once, quarantined exactly the storm, seen both rotations,
// kept its tail lag bounded, and serve all 23 reports equal to an
// offline engine fed the same rows — which itself equals mtls.Analyze.
func TestDaemonChaos(t *testing.T) {
	const (
		chunks    = 40
		stormRows = 200
		maxLag    = 64 << 20
	)
	for _, tc := range []struct {
		name, spec string
		disk       bool
	}{
		{name: "campus-memory"},
		{name: "campus-disk", disk: true},
		{name: "cohorts-memory", spec: cohortSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			work := t.TempDir()
			o := testOptions(filepath.Join(work, "logs"), testScale)
			o.checkpoint = filepath.Join(work, "ckpt")
			o.ckptEvery = 100 * time.Millisecond
			o.quarantine = filepath.Join(work, "quarantine.log")
			if tc.disk {
				o.store, o.storeDir, o.hotBytes = "disk", filepath.Join(work, "store"), 256<<10
			}
			spec := mtls.CampusSpec()
			if tc.spec != "" {
				o.spec = filepath.Join(work, "spec.yaml")
				if err := os.WriteFile(o.spec, []byte(tc.spec), 0o644); err != nil {
					t.Fatal(err)
				}
				var err error
				if spec, err = mtls.LoadSpec(o.spec); err != nil {
					t.Fatal(err)
				}
			}
			build, err := mtls.Generate(spec, mtls.WithScale(testScale))
			if err != nil {
				t.Fatal(err)
			}
			// The certificate rows as the daemon will parse them: written
			// once and read back.
			scratch := filepath.Join(work, "scratch")
			if err := mtls.WriteLogs(build.Raw, scratch); err != nil {
				t.Fatal(err)
			}
			xf, err := os.Open(filepath.Join(scratch, "x509.log"))
			if err != nil {
				t.Fatal(err)
			}
			certs, err := zeek.ReadX509(xf)
			xf.Close()
			if err != nil {
				t.Fatal(err)
			}
			conns := build.Raw.Conns

			logs := &liveLogs{dir: o.logs, headered: map[string]bool{}}
			if err := os.Mkdir(o.logs, 0o755); err != nil {
				t.Fatal(err)
			}
			for i := range conns {
				if conns[i].JA3 != "" || conns[i].JA4 != "" {
					logs.extended = true
					break
				}
			}
			if logs.extended != (tc.spec != "") {
				t.Fatalf("14-column schema = %v on spec %q", logs.extended, tc.name)
			}
			logs.conns(t, nil)
			logs.certs(t, nil)

			base, cancel, exit := startDaemon(t, o)
			running := true
			defer func() {
				if running {
					cancel()
					<-exit
				}
			}()

			var preRestart string
			var lagPeak int64
			written, certsWritten := 0, 0
			for step := 1; step <= chunks; step++ {
				hi := step * len(conns) / chunks
				logs.conns(t, conns[written:hi])
				written = hi
				if ct := step * len(certs) / chunks; ct > certsWritten {
					logs.certs(t, certs[certsWritten:ct])
					certsWritten = ct
				}
				switch step {
				case chunks * 20 / 100:
					logs.storm(t, stormRows)
				case chunks * 35 / 100:
					logs.rotate(t, "ssl.log")
				case chunks * 50 / 100:
					waitDrained(t, base, uint64(written), uint64(certsWritten))
					logs.copyTruncate(t, "x509.log")
				case chunks * 65 / 100:
					waitDrained(t, base, uint64(written), uint64(certsWritten))
					_, preRestart = httpGet(t, base+"/metrics")
					cancel()
					running = false
					if code := <-exit; code != 0 {
						t.Fatalf("shutdown before the restart: exit code %d", code)
					}
					base, cancel, exit = startDaemon(t, o)
					running = true
				}
				var st daemonStats
				if code, body := httpGet(t, base+"/api/v1/stats"); code != 200 || json.Unmarshal([]byte(body), &st) != nil {
					t.Fatalf("stats: HTTP %d: %s", code, body)
				}
				lagPeak = max(lagPeak, st.TailLag["ssl"]+st.TailLag["x509"])
			}

			st := waitDrained(t, base, uint64(len(conns)), uint64(len(certs)))
			if st.ConnsIngested != uint64(len(conns)) || st.CertsIngested != uint64(len(certs)) {
				t.Errorf("applied %d connections and %d certificates, wrote %d and %d",
					st.ConnsIngested, st.CertsIngested, len(conns), len(certs))
			}
			if lagPeak > maxLag {
				t.Errorf("tail lag peaked at %d bytes, bound %d", lagPeak, maxLag)
			}
			q, err := os.ReadFile(o.quarantine)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(q), stormMarker); n != stormRows {
				t.Errorf("quarantine holds %d storm rows, want %d", n, stormRows)
			}

			// Counters start again at the restart, so the rotations are
			// read off the scrape taken just before it.
			for _, series := range []string{`tail_rotations_total{file="ssl"}`, `tail_rotations_total{file="x509"}`} {
				if v, _ := metricSum(preRestart, series); v < 1 {
					t.Errorf("before the restart %s = %v, want >= 1", series, v)
				}
			}
			_, scrape := httpGet(t, base+"/metrics")
			checkCatalogued(t, scrape)
			for name, least := range map[string]float64{
				"stream_conns_ingested_total": 1, "mtlsd_checkpoint_writes_total": 1, "tail_lag_bytes": 0,
			} {
				if v, found := metricSum(scrape, name); !found || v < least {
					t.Errorf("/metrics %s = %v (found %v), want >= %v", name, v, found, least)
				}
			}
			if spilled, _ := metricSum(scrape, "stream_store_spilled_total"); tc.disk && spilled == 0 {
				t.Error("the disk store spilled nothing: -hot-bytes held the whole window")
			}

			in := mtls.InputFromBuild(build)
			in.Raw = nil
			ref, err := stream.New(stream.Config{Input: in})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			ref.IngestCertBatch(certs)
			ref.IngestConnBatch(conns)
			ref.Drain()
			refJSON, err := json.Marshal(ref.Analysis())
			if err != nil {
				t.Fatal(err)
			}
			batchJSON, err := json.Marshal(mtls.Analyze(build))
			if err != nil {
				t.Fatal(err)
			}
			if string(refJSON) != string(batchJSON) {
				t.Fatal("the offline engine over the appended rows differs from mtls.Analyze: the rows are not the build")
			}
			checkReportsAgainst(t, base, ref, "the offline engine over the same rows")
		})
	}
}
