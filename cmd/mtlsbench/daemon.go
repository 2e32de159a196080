package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one supervised subprocess of the system under test. Unlike
// chaos.Proc it keeps the exit state: the whole-lifecycle CPU figure is
// the kernel's own accounting at exit (rusage, microseconds), and the
// peak RSS is the kernel's high-water mark, not a sampled maximum.
type daemon struct {
	Name  string // "monitor", "sensor0", "aggregator", ...
	Base  string // http://host:port
	bin   string
	args  []string
	log   string
	cmd   *exec.Cmd
	done  chan struct{}
	err   error // cmd.Wait's result, valid after done is closed
	Spawn time.Time
}

// running is every started daemon that has not been reaped, so a signal
// to the harness can take the system under test down with it instead of
// orphaning it.
var running = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// killAll is the signal path's cleanup.
func killAll() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

func newDaemon(name, bin, addr, logPath string, args []string) *daemon {
	return &daemon{Name: name, Base: "http://" + addr, bin: bin, args: args, log: logPath}
}

// start launches (or relaunches) the process; both output streams
// append to the daemon's log file.
func (d *daemon) start() error {
	logf, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d.Spawn = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", d.Name, err)
	}
	d.cmd, d.done = cmd, make(chan struct{})
	running.Lock()
	running.set[d] = true
	running.Unlock()
	go func(done chan struct{}) {
		d.err = cmd.Wait()
		logf.Close()
		running.Lock()
		delete(running.set, d)
		running.Unlock()
		close(done)
	}(d.done)
	return nil
}

func (d *daemon) alive() bool {
	if d.cmd == nil {
		return false
	}
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

// usage is a finished process's resource accounting.
type usage struct {
	CPU    time.Duration // user + system, from rusage
	MaxRSS int64         // bytes, VmHWM read just before the stop signal
}

// wait blocks until the process exits and returns its CPU accounting; a
// non-zero exit is an error.
func (d *daemon) wait() (usage, error) {
	<-d.done
	var u usage
	if ps := d.cmd.ProcessState; ps != nil {
		u.CPU = ps.UserTime() + ps.SystemTime()
	}
	if d.err != nil {
		return u, fmt.Errorf("%s: %w (log: %s)", d.Name, d.err, d.log)
	}
	return u, nil
}

// peakRSS reads the live process's resident-set high-water mark (VmHWM
// in /proc/<pid>/status). rusage's ru_maxrss cannot stand in for it: on
// exec Linux folds the *parent's* peak into the child's figure, so a
// daemon spawned by a harness holding a large dataset would report the
// harness. Returns 0 where procfs is missing.
func (d *daemon) peakRSS() int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, _ := strconv.ParseInt(string(f[1]), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// stop sends SIGTERM — the daemon drains its tailer and writes a final
// checkpoint — and waits for the exit, escalating to SIGKILL (an error)
// past the timeout.
func (d *daemon) stop(timeout time.Duration) (usage, error) {
	if !d.alive() {
		return d.wait()
	}
	peak := d.peakRSS()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return usage{}, err
	}
	select {
	case <-d.done:
		u, err := d.wait()
		u.MaxRSS = peak
		return u, err
	case <-time.After(timeout):
		d.kill()
		u, _ := d.wait()
		return u, fmt.Errorf("%s ignored SIGTERM for %v, killed", d.Name, timeout)
	}
}

// kill is the cleanup path: whatever happened, no process outlives the
// benchmark.
func (d *daemon) kill() {
	if d.alive() {
		_ = d.cmd.Process.Kill() // already-exited is the only failure, and fine
		<-d.done
	}
}

// cpuNow reads the live process's on-CPU time: the sum over its threads
// of /proc/<pid>/task/<tid>/schedstat (nanoseconds — /proc/<pid>/stat
// only counts 10 ms ticks, too coarse for a window of a few seconds). It
// returns 0 where procfs or schedstats are missing; the metrics derived
// from it then read 0 and the run reports them as not measured.
func (d *daemon) cpuNow() time.Duration {
	tasks, err := filepath.Glob("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/task/*/schedstat")
	if err != nil {
		return 0
	}
	var ns int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := bytes.Fields(data); len(f) > 0 {
			n, _ := strconv.ParseInt(string(f[0]), 10, 64)
			ns += n
		}
	}
	return time.Duration(ns)
}

// freeAddr reserves a loopback port by binding and releasing it; the
// daemon rebinds the same address on restart.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newClient returns an HTTP client that holds exactly one keep-alive
// connection, so the harness's load on the daemon is the two
// connections the load model states: one prober, one reader.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get fetches url and returns the status and the whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// daemonStats is the slice of /api/v1/stats the harness steers by.
type daemonStats struct {
	ConnsIngested uint64
	CertsIngested uint64
	TailLag       map[string]int64
}

func (s daemonStats) lag() int64 {
	var n int64
	for _, v := range s.TailLag {
		n += v
	}
	return n
}

func fetchStats(c *http.Client, base string) (daemonStats, error) {
	var s daemonStats
	code, body, err := get(c, base+"/api/v1/stats")
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("GET /api/v1/stats: %d", code)
	}
	return s, json.Unmarshal(body, &s)
}

// waitStats polls base's stats every gap until ok accepts a response,
// the process dies, or the timeout lapses. It returns the accepted
// response, when it was received, and when the first response of any
// kind arrived (the daemon's start-up time when called after a spawn).
func waitStats(c *http.Client, d *daemon, base string, gap, timeout time.Duration,
	ok func(daemonStats) bool) (st daemonStats, at, first time.Time, err error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if d != nil && !d.alive() {
			return st, at, first, fmt.Errorf("%s exited while the harness waited on it (log: %s)", d.Name, d.log)
		}
		st, err = fetchStats(c, base)
		at = time.Now()
		if err == nil {
			if first.IsZero() {
				first = at
			}
			if ok(st) {
				return st, at, first, nil
			}
		}
		time.Sleep(gap)
	}
	if err == nil {
		err = fmt.Errorf("conns %d certs %d lag %d", st.ConnsIngested, st.CertsIngested, st.lag())
	}
	return st, at, first, fmt.Errorf("%s: not reached within %v: %w", base, timeout, err)
}
