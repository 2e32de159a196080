package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"syscall"
)

// watchEvents are the inotify events that can mean a log has rows to
// read: written, created, or renamed into or out of the directory.
const watchEvents = syscall.IN_MODIFY | syscall.IN_CREATE | syscall.IN_MOVED_TO | syscall.IN_MOVED_FROM

// openWatch watches dir with inotify for events naming one of the logs.
// The descriptor is non-blocking and read through an *os.File, so the
// reading goroutine parks in the runtime's poller between events.
func openWatch(dir string, logs ...string) (*logWatch, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil, os.NewSyscallError("inotify_init1", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, watchEvents); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("inotify_add_watch", err)
	}
	w := &logWatch{C: make(chan struct{}, 1), f: os.NewFile(uintptr(fd), "inotify:"+dir)}
	go w.read(logs)
	return w, nil
}

// read turns each read of the watch into at most one wake, until the
// watch is lost or closed.
func (w *logWatch) read(logs []string) {
	buf := make([]byte, 64*(syscall.SizeofInotifyEvent+syscall.NAME_MAX+1))
	for {
		n, err := w.f.Read(buf)
		if errors.Is(err, os.ErrClosed) {
			return // Close: the tailer is done with it
		}
		wake := false
		if err == nil {
			wake, err = scanEvents(buf[:n], logs)
		}
		if wake {
			select {
			case w.C <- struct{}{}:
			default: // a wake is pending already
			}
		}
		if err != nil {
			w.err = err
			close(w.C)
			return
		}
	}
}

// scanEvents reports whether the events of one read name one of the logs
// or overflowed the kernel's queue, and an error when the watch itself
// was removed (IN_IGNORED: the directory is gone or unmounted).
func scanEvents(buf []byte, logs []string) (wake bool, err error) {
	for len(buf) >= syscall.SizeofInotifyEvent {
		mask := binary.NativeEndian.Uint32(buf[4:])
		end := syscall.SizeofInotifyEvent + int(binary.NativeEndian.Uint32(buf[12:]))
		if end > len(buf) {
			return wake, fmt.Errorf("inotify: a %d-byte read ends inside an event", len(buf))
		}
		name := bytes.TrimRight(buf[syscall.SizeofInotifyEvent:end], "\x00")
		buf = buf[end:]
		switch {
		case mask&syscall.IN_IGNORED != 0:
			return wake, errors.New("inotify: the watch was removed")
		case mask&syscall.IN_Q_OVERFLOW != 0:
			wake = true
		case slices.Contains(logs, string(name)):
			wake = true
		}
	}
	return wake, nil
}
