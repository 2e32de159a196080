//go:build !linux

package main

import (
	"fmt"
	"runtime"
)

// openWatch has no file-event source off Linux: the tailer runs on the
// -poll ticker alone.
func openWatch(dir string, logs ...string) (*logWatch, error) {
	return nil, fmt.Errorf("no file events on %s", runtime.GOOS)
}
