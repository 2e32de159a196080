package backoff

import (
	"testing"
	"time"
)

// TestBackoff pins the retry schedule: first failure waits one base
// interval, consecutive failures double up to the cap, and a success
// resets the schedule.
func TestBackoff(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	b := New(100 * time.Millisecond)

	if !b.Ready(now) {
		t.Fatal("fresh backoff must be ready")
	}
	if d := b.Failure(now); d != 100*time.Millisecond {
		t.Fatalf("first failure delay = %v, want 100ms", d)
	}
	if b.Ready(now.Add(50 * time.Millisecond)) {
		t.Fatal("ready before the delay elapsed")
	}
	if !b.Ready(now.Add(100 * time.Millisecond)) {
		t.Fatal("not ready after the delay elapsed")
	}
	for i, want := range []time.Duration{200, 400, 800, 1600, 3200, 3200} {
		if d := b.Failure(now); d != want*time.Millisecond {
			t.Fatalf("failure %d delay = %v, want %v (cap = 32x base)", i+2, d, want*time.Millisecond)
		}
	}
	b.Success()
	if !b.Ready(now) {
		t.Fatal("not ready after success reset")
	}
	if d := b.Failure(now); d != 100*time.Millisecond {
		t.Fatalf("post-reset failure delay = %v, want 100ms", d)
	}

	// A slow base interval is capped at one minute, not 32x.
	slow := New(5 * time.Second)
	var last time.Duration
	for i := 0; i < 10; i++ {
		last = slow.Failure(now)
	}
	if last != time.Minute {
		t.Fatalf("slow-base cap = %v, want 1m", last)
	}
}
