package atomicfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteToCommits is the happy path: the final file holds exactly the
// emitted bytes and no temp file survives.
func TestWriteToCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := WriteFile(path, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("committed %q, want %q", got, "payload")
	}
	if _, err := os.Stat(TempName(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived a clean commit: %v", err)
	}
}

// TestWriteToFailpoints injects a failure at every stage of the commit
// protocol and asserts the invariant the checkpoint path depends on: a
// failed commit never replaces the previous committed content and never
// leaves a temp file behind (except past the rename, where the commit
// has already happened).
func TestWriteToFailpoints(t *testing.T) {
	boom := errors.New("injected")
	for _, stage := range []Stage{StageCreate, StageWrite, StageSync, StageClose, StageRename} {
		t.Run(string(stage), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state")
			if err := WriteFile(path, []byte("generation-1")); err != nil {
				t.Fatal(err)
			}
			Failpoint = func(s Stage, _ string) error {
				if s == stage {
					return boom
				}
				return nil
			}
			defer func() { Failpoint = nil }()
			err := WriteFile(path, []byte("generation-2"))
			if !errors.Is(err, boom) {
				t.Fatalf("stage %s: err = %v, want injected failure", stage, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "generation-1" {
				t.Fatalf("stage %s: previous commit replaced by %q", stage, got)
			}
			if _, err := os.Stat(TempName(path)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("stage %s: temp file left behind", stage)
			}
		})
	}
}

// TestWriteToSyncDirFailureAfterRename: a failure fsyncing the directory
// is reported, but the rename has already landed — the caller sees the
// new content together with the error, exactly the ambiguity a real
// power loss in that window leaves.
func TestWriteToSyncDirFailureAfterRename(t *testing.T) {
	boom := errors.New("injected")
	path := filepath.Join(t.TempDir(), "state")
	Failpoint = func(s Stage, _ string) error {
		if s == StageSyncDir {
			return boom
		}
		return nil
	}
	defer func() { Failpoint = nil }()
	err := WriteFile(path, []byte("x"))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected failure", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "x" {
		t.Fatalf("rename did not land: %q, %v", got, err)
	}
}

// TestWriteToEmitError: the emit callback failing removes the temp and
// propagates the error unwrapped.
func TestWriteToEmitError(t *testing.T) {
	boom := errors.New("emit failed")
	path := filepath.Join(t.TempDir(), "state")
	err := WriteTo(path, func(*os.File) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want emit error", err)
	}
	if _, err := os.Stat(TempName(path)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind after emit failure")
	}
}

func TestWriteToEmitWriteError(t *testing.T) {
	// A write that fails inside emit (closed file) must not commit.
	path := filepath.Join(t.TempDir(), "state")
	err := WriteTo(path, func(f *os.File) error {
		f.Close()
		_, werr := f.Write([]byte("x"))
		if werr == nil {
			return fmt.Errorf("write on closed file succeeded")
		}
		return werr
	})
	if err == nil {
		t.Fatal("commit succeeded despite emit failure")
	}
	if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("final path exists after failed emit: %v", serr)
	}
}
