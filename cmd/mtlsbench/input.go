package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	mtls "repro"
	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/scenario"
	"repro/internal/zeek"
)

//go:embed workloads/fleet.spec.yaml
var fleetSpecYAML []byte

// meanGap is the mean of the exponential gaps between live chunks. It is
// deliberately not a divisor or multiple of the daemon's 50 ms poll, so
// the writer and the poll phases drift against each other instead of
// locking.
const meanGap = 10 * time.Millisecond

// withholdDelay is how late a withheld certificate arrives.
const withholdDelay = time.Second

// seedBase offsets --seed into the generator's seed space: mtlsd treats
// -seed 0 as "library default", so the seed it is handed must not be 0.
const seedBase = 20240504

// planParams is everything the input plan depends on besides the rows.
type planParams struct {
	Dirs     int           // log directories (1 monitor, or one per sensor)
	LiveRows int           // connection rows appended during the live window
	Window   time.Duration // length of the live window
	Withhold float64       // share of live first-use certificates appended withholdDelay late
	Seed     uint64        // schedule seed
	Extended bool          // ssl.log carries the ja3/ja4 columns
}

// event is one scheduled append: the certificates first (Zeek logs a
// chain to x509.log before the connection that carried it reaches
// ssl.log), then the connection rows. A late-certificate event has no
// ssl rows and Chunk -1.
type event struct {
	Due   time.Duration // offset from the start of the live window
	Dir   int
	X509  []byte
	SSL   []byte
	Chunk int // index into plan.Chunks, -1 for a late-certificate append
	Certs int // certificate rows in X509
}

// chunk is one live append of connection rows, the unit freshness is
// measured on.
type chunk struct {
	Due      time.Duration
	Lo, Hi   int // connection rows [Lo, Hi) of the dataset
	CumConns int // connection rows written through this chunk, backlog included
}

// plan is a dataset laid out for one run: what is on disk before the
// daemon starts, and the open-loop append schedule of the live window.
// Every byte is rendered here, during set-up, so the timed region does
// nothing but write(2).
type plan struct {
	BacklogX509  [][]byte // per directory, header included
	BacklogSSL   [][]byte
	BacklogConns int
	BacklogCerts int     // certificate rows in the backlog, all directories
	Events       []event // sorted by Due
	Chunks       []chunk
	ConnRows     []int             // connection rows per directory, whole run
	CertRows     []int             // certificate rows per directory, whole run
	Roster       []zeek.X509Record // each certificate once, in first-emission order
}

// rows is every row the run writes, certificates repeated across
// directories included.
func (p *plan) rows() int {
	n := 0
	for d := range p.ConnRows {
		n += p.ConnRows[d] + p.CertRows[d]
	}
	return n
}

// planInput lays conns (in dataset order) and their certificates out
// over the backlog and the live schedule.
//
// Certificates are emitted on first use: a certificate row is appended
// to a directory's x509.log immediately before the first chunk of that
// directory whose connections reference it. The alternative mtlsload
// uses — certificates "riding along" in proportion to the connection
// stream — delivers most certificates after connections that reference
// them, so the engine's derived state is dirty after every poll and
// every report is a full rebuild; that measures the rebuild, not the
// daemon. Certificates no connection references go to the head of
// directory 0's backlog so the roster still equals the build's.
//
// Connections are dealt to directories in blocks of one chunk's size,
// round-robin, backlog and live window alike.
func planInput(conns []zeek.SSLRecord, certs map[ids.Fingerprint]*certmodel.CertInfo, pp planParams) (*plan, error) {
	if pp.Dirs < 1 || pp.LiveRows < 0 || pp.LiveRows > len(conns) {
		return nil, fmt.Errorf("plan: %d dirs, %d live rows of %d", pp.Dirs, pp.LiveRows, len(conns))
	}
	nChunks := int(pp.Window / meanGap)
	if pp.LiveRows == 0 {
		nChunks = 0
	} else if nChunks < 1 || nChunks > pp.LiveRows {
		return nil, fmt.Errorf("plan: %d live rows cannot fill %d chunks", pp.LiveRows, nChunks)
	}
	p := &plan{
		BacklogX509:  make([][]byte, pp.Dirs),
		BacklogSSL:   make([][]byte, pp.Dirs),
		BacklogConns: len(conns) - pp.LiveRows,
		ConnRows:     make([]int, pp.Dirs),
		CertRows:     make([]int, pp.Dirs),
	}
	rng := ids.NewRNG(pp.Seed).Fork("mtlsbench-schedule")
	dues := schedule(rng, nChunks, pp.Window)
	withhold := rng.Fork("withhold")

	r := newRenderer(pp.Extended)
	seen := make([]map[ids.Fingerprint]bool, pp.Dirs)
	for d := range seen {
		seen[d] = make(map[ids.Fingerprint]bool)
	}
	inRoster := make(map[ids.Fingerprint]bool, len(certs))
	// firstUse renders the certificates rows [lo,hi) are the first in
	// dir to reference; withheld ones go to late instead of now.
	firstUse := func(dir, lo, hi int, now, late *bytes.Buffer) (nNow, nLate int) {
		for i := lo; i < hi; i++ {
			for _, chain := range [2][]ids.Fingerprint{conns[i].ServerChain, conns[i].ClientChain} {
				for _, fp := range chain {
					c := certs[fp]
					if c == nil || seen[dir][fp] {
						continue
					}
					seen[dir][fp] = true
					if !inRoster[fp] {
						inRoster[fp] = true
						p.Roster = append(p.Roster, certRecord(c))
					}
					if late != nil && withhold.Bool(pp.Withhold) {
						late.Write(r.cert(c))
						nLate++
					} else {
						now.Write(r.cert(c))
						nNow++
					}
				}
			}
		}
		p.CertRows[dir] += nNow + nLate
		return nNow, nLate
	}

	// Backlog: headers, unreferenced certificates, then blocks.
	x509 := make([]bytes.Buffer, pp.Dirs)
	ssl := make([]bytes.Buffer, pp.Dirs)
	for d := 0; d < pp.Dirs; d++ {
		x509[d].Write(r.x509Header)
		ssl[d].Write(r.sslHeader)
	}
	referenced := make(map[ids.Fingerprint]bool, len(certs))
	for i := range conns {
		for _, fp := range conns[i].ServerChain {
			referenced[fp] = true
		}
		for _, fp := range conns[i].ClientChain {
			referenced[fp] = true
		}
	}
	var orphans []ids.Fingerprint
	for fp := range certs {
		if !referenced[fp] {
			orphans = append(orphans, fp)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, fp := range orphans {
		seen[0][fp] = true
		inRoster[fp] = true
		p.Roster = append(p.Roster, certRecord(certs[fp]))
		x509[0].Write(r.cert(certs[fp]))
		p.CertRows[0]++
	}

	blockRows := 512 // backlog block size when there is no live window
	if nChunks > 0 {
		blockRows = (pp.LiveRows + nChunks - 1) / nChunks
	}
	block := 0
	for lo := 0; lo < p.BacklogConns; lo += blockRows {
		hi := min(lo+blockRows, p.BacklogConns)
		dir := block % pp.Dirs
		block++
		firstUse(dir, lo, hi, &x509[dir], nil)
		ssl[dir].Write(r.conns(conns[lo:hi]))
		p.ConnRows[dir] += hi - lo
	}
	for d := 0; d < pp.Dirs; d++ {
		p.BacklogX509[d] = x509[d].Bytes()
		p.BacklogSSL[d] = ssl[d].Bytes()
		p.BacklogCerts += p.CertRows[d] // nothing live has been planned yet
	}

	// Live window: chunk k holds an even share of the live rows.
	for k := 0; k < nChunks; k++ {
		lo := p.BacklogConns + k*pp.LiveRows/nChunks
		hi := p.BacklogConns + (k+1)*pp.LiveRows/nChunks
		dir := block % pp.Dirs
		block++
		var now, late bytes.Buffer
		nNow, nLate := firstUse(dir, lo, hi, &now, &late)
		p.Chunks = append(p.Chunks, chunk{Due: dues[k], Lo: lo, Hi: hi, CumConns: hi})
		p.Events = append(p.Events, event{Due: dues[k], Dir: dir, X509: now.Bytes(),
			SSL: bytes.Clone(r.conns(conns[lo:hi])), Chunk: k, Certs: nNow})
		if nLate > 0 {
			p.Events = append(p.Events, event{Due: dues[k] + withholdDelay, Dir: dir,
				X509: late.Bytes(), Chunk: -1, Certs: nLate})
		}
		p.ConnRows[dir] += hi - lo
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Due < p.Events[j].Due })
	return p, nil
}

// schedule draws n exponential gaps and scales them so the last chunk is
// due exactly at window: the arrival pattern is Poisson, the window
// length (and so the offered rate) is the same for every seed.
func schedule(rng *ids.RNG, n int, window time.Duration) []time.Duration {
	at := make([]float64, n)
	var sum float64
	for k := range at {
		sum += -math.Log(1 - rng.Float64())
		at[k] = sum
	}
	dues := make([]time.Duration, n)
	for k := range at {
		dues[k] = time.Duration(at[k] / sum * float64(window))
	}
	return dues
}

func certRecord(c *certmodel.CertInfo) zeek.X509Record {
	return zeek.X509Record{TS: c.NotBefore, ID: ids.NewFileID(c.Fingerprint), Cert: c}
}

// renderer turns records into the exact TSV bytes a Zeek writer would
// append, through the repo's own writers.
type renderer struct {
	sslHeader, x509Header []byte
	sslBuf, x509Buf       bytes.Buffer
	sw                    *zeek.SSLWriter
	xw                    *zeek.X509Writer
	certs                 map[ids.Fingerprint][]byte
}

func newRenderer(extended bool) *renderer {
	r := &renderer{certs: make(map[ids.Fingerprint][]byte)}
	r.sw = zeek.NewSSLWriter(&r.sslBuf)
	r.sw.Extended = extended
	r.xw = zeek.NewX509Writer(&r.x509Buf)
	// Writes to a bytes.Buffer cannot fail.
	_ = r.sw.WriteHeader()
	_ = r.sw.Flush()
	r.sslHeader = bytes.Clone(r.sslBuf.Bytes())
	_ = r.xw.WriteHeader()
	_ = r.xw.Flush()
	r.x509Header = bytes.Clone(r.x509Buf.Bytes())
	return r
}

// conns renders rows; the result is valid until the next call.
func (r *renderer) conns(recs []zeek.SSLRecord) []byte {
	r.sslBuf.Reset()
	for i := range recs {
		_ = r.sw.Write(&recs[i])
	}
	_ = r.sw.Flush()
	return r.sslBuf.Bytes()
}

// cert renders one certificate row, once per certificate.
func (r *renderer) cert(c *certmodel.CertInfo) []byte {
	if b, ok := r.certs[c.Fingerprint]; ok {
		return b
	}
	r.x509Buf.Reset()
	rec := certRecord(c)
	_ = r.xw.Write(&rec)
	_ = r.xw.Flush()
	b := bytes.Clone(r.x509Buf.Bytes())
	r.certs[c.Fingerprint] = b
	return b
}

// input is one workload's generated dataset and its plan.
type input struct {
	W        workload
	Seed     uint64 // generator seed handed to mtlsd
	Spec     *mtls.Spec
	SpecHash string
	Extended bool // ssl.log carries the ja3/ja4 columns
	Build    *mtls.Build
	Plan     *plan
}

// loadSpec resolves a workload's scenario spec and its canonical hash.
func loadSpec(w workload) (*mtls.Spec, string, error) {
	spec := mtls.CampusSpec()
	if w.Fleet {
		var err error
		if spec, err = mtls.ParseSpec(fleetSpecYAML); err != nil {
			return nil, "", fmt.Errorf("parse workloads/fleet.spec.yaml: %w", err)
		}
	}
	sum := sha256.Sum256([]byte(scenario.Render(spec)))
	return spec, hex.EncodeToString(sum[:6]), nil
}

// buildInput generates the workload's dataset from seed and plans it for
// a live window of the given length.
func buildInput(w workload, seed uint64, window time.Duration) (*input, error) {
	spec, hash, err := loadSpec(w)
	if err != nil {
		return nil, err
	}
	in := &input{W: w, Seed: seed + seedBase, Spec: spec, SpecHash: hash}
	if in.Build, err = mtls.Generate(spec, mtls.WithScale(w.Scale), mtls.WithSeed(in.Seed)); err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.Name, err)
	}
	conns := in.Build.Raw.Conns
	for i := range conns {
		if conns[i].JA3 != "" || conns[i].JA4 != "" {
			in.Extended = true
			break
		}
	}
	live := min(int(w.Rate*window.Seconds()), len(conns))
	in.Plan, err = planInput(conns, in.Build.Raw.Certs, planParams{
		Dirs: max(1, w.Sensors), LiveRows: live, Window: window,
		Withhold: w.Withhold, Seed: seed, Extended: in.Extended,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return in, nil
}
