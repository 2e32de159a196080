package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// event encodes one inotify event as the kernel returns it, the name
// NUL-padded to a multiple of four bytes.
func event(mask uint32, name string) []byte {
	n := 0
	if name != "" {
		n = (len(name) + 4) &^ 3
	}
	buf := make([]byte, syscall.SizeofInotifyEvent+n)
	binary.NativeEndian.PutUint32(buf[4:], mask)
	binary.NativeEndian.PutUint32(buf[12:], uint32(n))
	copy(buf[syscall.SizeofInotifyEvent:], name)
	return buf
}

// TestScanEvents: only events naming a tailed log, or an overflowed
// queue, wake the tailer — once per read, however many there are — and a
// removed watch is an error.
func TestScanEvents(t *testing.T) {
	logs := []string{"ssl.log", "x509.log"}
	join := func(evs ...[]byte) (out []byte) {
		for _, ev := range evs {
			out = append(out, ev...)
		}
		return out
	}
	for _, c := range []struct {
		name      string
		buf       []byte
		wake, err bool
	}{
		{"other files", join(event(syscall.IN_MODIFY, "quarantine.log"), event(syscall.IN_CREATE, "ssl.log.1")), false, false},
		{"a write", join(event(syscall.IN_MODIFY, "ssl.log")), true, false},
		{"many at once", join(event(syscall.IN_MODIFY, "x509.log"), event(syscall.IN_MOVED_FROM, "ssl.log"),
			event(syscall.IN_CREATE, "ssl.log"), event(syscall.IN_MODIFY, "ssl.log")), true, false},
		{"overflow", join(event(syscall.IN_Q_OVERFLOW, "")), true, false},
		{"removed", join(event(syscall.IN_MODIFY, "ssl.log"), event(syscall.IN_IGNORED, "")), true, true},
		{"torn", event(syscall.IN_MODIFY, "ssl.log")[:syscall.SizeofInotifyEvent+2], false, true},
	} {
		wake, err := scanEvents(c.buf, logs)
		if wake != c.wake || (err != nil) != c.err {
			t.Errorf("%s: wake %v, err %v; want wake %v, an error %v", c.name, wake, err, c.wake, c.err)
		}
	}
}

// TestWatchWakesAndIsLost: a write to a tailed log wakes the watch, and
// removing the directory loses it — C closes with the reason.
func TestWatchWakesAndIsLost(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := openWatch(dir, "ssl.log", "x509.log")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := os.WriteFile(filepath.Join(dir, "ssl.log"), []byte("#path\tssl\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-w.C:
		if !ok {
			t.Fatalf("the watch was lost: %v", w.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no wake for a write to ssl.log")
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-w.C:
			if ok {
				continue // the removal's own events
			}
			if w.err == nil {
				t.Fatal("C closed without a reason")
			}
			return
		case <-deadline:
			t.Fatal("removing the directory did not lose the watch")
		}
	}
}
