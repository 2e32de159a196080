package main

import "os"

// logWatch wakes the tailer when a log it reads is written. C receives a
// value for every read of the watch that returned an event naming one of
// the logs (or an event-queue overflow), however many events that read
// returned; C holds one pending wake, so a burst of writes landing while
// the tailer polls costs it one more round, not one per write. C is
// closed when the watch is lost, err then saying why. The -poll ticker
// stays the backstop, so a watch that cannot be set up, or is lost, costs
// latency, not rows.
type logWatch struct {
	C   chan struct{}
	f   *os.File
	err error
}

// Close stops the watch; C is not closed for it.
func (w *logWatch) Close() error { return w.f.Close() }
