package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/certmodel"
)

// TestDiskStoreSpillsConnectionsOnly is the count gate on the disk
// store's ingest path: under a 1 MiB budget the scale-2000 campus build
// (certificates, then connections, 512-batches, no materialization)
// must spill connections and load nothing back — the roster is engine
// state, so no lookup on the apply path can touch the segment file —
// and every *CertInfo handed out before the spilling is still the
// roster's entry after it.
func TestDiskStoreSpillsConnectionsOnly(t *testing.T) {
	b := genBuild(20240504, 2000)
	in := inputFromBuild(b)
	in.Raw = nil
	eng := newEngine(t, in, func(c *Config) {
		c.Store = "disk"
		c.StoreDir = t.TempDir()
		c.HotBytes = 1 << 20
	})
	certs := certRecords(b)
	feedBatches(t, eng, certs, nil, 512)
	eng.Drain()
	e := eng.win
	before := make([]*certmodel.CertInfo, len(certs))
	eng.mu.Lock()
	for i := range certs {
		before[i] = eng.certs[certs[i].Cert.Fingerprint]
	}
	eng.mu.Unlock()

	feedBatches(t, eng, nil, b.Raw.Conns, 512)
	eng.Drain()
	st := e.st.Stats()
	if got := st.Loads.Load(); got != 0 {
		t.Errorf("stream_store_loaded_total = %d after ingest alone, want 0", got)
	}
	if st.Spills.Load() == 0 {
		t.Error("stream_store_spilled_total = 0: the budget forced no spill, the gate is not exercising the cold tier")
	}
	if got := st.HotBytes.Load(); got > 1<<20 {
		t.Errorf("stream_store_hot_bytes = %d, above the 1 MiB budget", got)
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	if len(eng.roster) != len(certs) {
		t.Fatalf("roster holds %d certificates, want %d", len(eng.roster), len(certs))
	}
	for i := range certs {
		if got := eng.certs[certs[i].Cert.Fingerprint]; got == nil || got != before[i] {
			t.Fatalf("roster pointer for %s moved across connection spilling", certs[i].Cert.Fingerprint)
		}
	}
}

// TestShardedHotBytesIsDeploymentBudget pins -hot-bytes as the window's
// budget, which is the deployment's: a disk-store engine under HotBytes
// 4 MiB, fed several times that, holds at most 4 MiB of hot connections
// (plus one record of slack), and tiers into StoreDir itself.
func TestShardedHotBytesIsDeploymentBudget(t *testing.T) {
	const budget, recordSlack = 4 << 20, 1 << 10
	b := genBuild(20240504, 200)
	in := inputFromBuild(b)
	in.Raw = nil
	dir := t.TempDir()
	s := newEngine(t, in, func(c *Config) { c.Store, c.StoreDir, c.HotBytes = "disk", dir, budget })
	feedBatches(t, s, certRecords(b), b.Raw.Conns, 512)
	s.Drain()
	st := s.win.st.Stats()
	if st.Spills.Load() == 0 {
		t.Fatal("nothing spilled: the feed did not exceed the budget")
	}
	if hot := st.HotBytes.Load(); hot > budget+recordSlack {
		t.Fatalf("the window holds %d hot bytes, above the %d-byte budget", hot, budget)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			t.Fatalf("the store made a subdirectory %s of StoreDir", ent.Name())
		}
	}
}

// TestPlainCheckpointRestoresOntoDiskStore: a plain engine's checkpoint
// restores onto the disk store under its sequence column — were the
// records all left at zero, the cold index could not tell a frame's
// records apart. Under a starved budget every one of the reports must
// equal the memory-store restore of the same checkpoint.
func TestPlainCheckpointRestoresOntoDiskStore(t *testing.T) {
	b := genBuild(7, 1200)
	in := inputFromBuild(b)
	in.Raw = nil
	e := newEngine(t, in, nil)
	feed(t, e, b)
	e.Drain()
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := e.WriteCheckpoint(dir, nil); err != nil {
		t.Fatal(err)
	}
	mem, _, err := Restore(Config{Input: in}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mem.Close)
	disk, _, err := Restore(Config{Input: in, Store: "disk", StoreDir: t.TempDir(), HotBytes: 16 << 10}, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	if cold, held := coldConns(disk), disk.Stats().Retained; cold == 0 || held != len(b.Raw.Conns) {
		t.Fatalf("disk restore holds %d conns (%d cold) of %d", held, cold, len(b.Raw.Conns))
	}
	diffReports(t, "disk-store against memory-store restore", allReports(t, mem), allReports(t, disk))
}

// coldConns counts the connections e's window holds in the cold tier.
func coldConns(e *Engine) int64 { return e.win.st.Stats().ColdConns.Load() }

// liveHeap is the heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestTieredReportDoesNotPinRecords: a disk-store deployment under a
// starved hot budget holds the same live heap after a round of reports
// as before it — a view that kept its Builder would hold every record the
// report decoded from the cold tier, and the budget would bound nothing
// from the first report on. The reports themselves equal the memory
// store's. The shards=2 case is what a deployment that still asks for two
// shards gets: the same one window under the same budget.
func TestTieredReportDoesNotPinRecords(t *testing.T) {
	const margin = 4 << 20
	b := genBuild(20240504, 400)
	in := inputFromBuild(b)
	in.Raw = nil
	mem := newEngine(t, in, nil)
	feedBatches(t, mem, certRecords(b), b.Raw.Conns, 512)
	mem.Drain()
	want := allReports(t, mem)

	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s, err := NewSharded(n, Config{Input: in, Store: "disk", StoreDir: t.TempDir(), HotBytes: 256 << 10})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			feedBatches(t, s, certRecords(b), b.Raw.Conns, 512)
			s.Drain()
			cold := coldConns(s)
			if cold < int64(len(b.Raw.Conns))*9/10 {
				t.Fatalf("%d of %d connections are cold: the budget is not starving the hot tier", cold, len(b.Raw.Conns))
			}
			before := liveHeap()
			got := allReports(t, s)
			diffReports(t, "disk store against memory store", want, got)
			got = nil
			after := liveHeap()
			t.Logf("live heap %.1f MB before the reports, %.1f MB after", float64(before)/1e6, float64(after)/1e6)
			if after-before > margin {
				t.Errorf("live heap grew %.1f MB across a round of reports (%.1f → %.1f MB): decoded records are pinned",
					float64(after-before)/1e6, float64(before)/1e6, float64(after)/1e6)
			}
			if st := s.Stats(); !st.Dirty {
				t.Error("Stats().Dirty = false after a read: the view is holding a Builder over a tiered window")
			}
		})
	}
}
