package core

import (
	"runtime"
	"sync"
)

// This file is the pipeline's concurrency: the ~21 table/figure analyses
// only read the enriched state, so RunAll dispatches them across a
// bounded pool. Preprocessing is serial; its hot-path caches live with
// the enricher (input.go).

// workerCount resolves the Input.Workers setting: 0 (or negative) means
// one worker per CPU, anything else is taken literally.
func workerCount(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// runTasks executes independent analysis closures. With one worker it
// degenerates to an in-order loop; otherwise a bounded pool drains the
// task list. wg.Wait gives the caller a happens-before edge on every
// result field the closures wrote.
func runTasks(workers int, tasks []func()) {
	if workers <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				t()
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
}
