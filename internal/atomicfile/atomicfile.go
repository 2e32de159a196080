// Package atomicfile is the one place the repository commits files to
// disk durably. Every "write a temp file and rename it into place"
// site — engine checkpoints, sharded manifests, mtls.WriteLogs — used
// to hand-roll Create → Encode → Close → Rename, which is atomic
// against concurrent readers but NOT against power loss: without an
// fsync of the temp file the rename can surface a zero-length or torn
// file after a crash (the rename metadata reaches the journal before
// the data pages), and without an fsync of the parent directory the
// rename itself can vanish. This package does the full protocol:
//
//	create <path>.tmp → write → fsync(file) → close → rename → fsync(dir)
//
// A failure at any stage removes the temp file and leaves any previous
// committed file untouched, so the caller always observes either the
// old content or the new — never a prefix.
//
// Failpoint is the crash-injection seam: tests set it to make a chosen
// stage fail (or to snapshot the directory "as power loss would see
// it") and assert the commit protocol held.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// Stage names a point in the commit protocol where a Failpoint can
// inject a failure.
type Stage string

const (
	StageCreate Stage = "create"
	StageWrite  Stage = "write"
	StageSync   Stage = "sync"
	StageClose  Stage = "close"
	StageRename Stage = "rename"
	// StageSyncDir runs after the rename; a failure here is reported to
	// the caller but the rename has already happened (matching the real
	// crash window: the commit may or may not survive power loss).
	StageSyncDir Stage = "syncdir"
)

// Failpoint, when non-nil, is consulted before each stage; returning a
// non-nil error makes that stage fail. Tests only — never set in
// production code paths.
var Failpoint func(stage Stage, path string) error

func failpoint(stage Stage, path string) error {
	if Failpoint == nil {
		return nil
	}
	return Failpoint(stage, path)
}

// TempName returns the temp path WriteTo commits through, exported so
// crash-recovery sweeps can identify stale partials left by a kill
// between create and rename.
func TempName(path string) string { return path + ".tmp" }

// WriteTo writes path atomically and durably: emit receives the open
// temp file, and only after it returns cleanly is the file fsynced,
// closed, renamed over path, and the parent directory fsynced. On any
// error the temp file is removed and path is untouched.
func WriteTo(path string, emit func(f *os.File) error) error {
	tmp := TempName(path)
	if err := failpoint(StageCreate, tmp); err != nil {
		return fmt.Errorf("atomicfile: create %s: %w", tmp, err)
	}
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("atomicfile: create: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := failpoint(StageWrite, tmp); err != nil {
		return fail(fmt.Errorf("atomicfile: write %s: %w", tmp, err))
	}
	if err := emit(f); err != nil {
		return fail(err)
	}
	if err := failpoint(StageSync, tmp); err != nil {
		return fail(fmt.Errorf("atomicfile: sync %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("atomicfile: sync: %w", err))
	}
	if err := failpoint(StageClose, tmp); err != nil {
		return fail(fmt.Errorf("atomicfile: close %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: close: %w", err)
	}
	return Rename(tmp, path)
}

// WriteFile is WriteTo for callers that already hold the full content.
func WriteFile(path string, data []byte) error {
	return WriteTo(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// Rename commits an already-written (and already-synced) temp file:
// rename over path, then fsync the parent directory so the rename
// itself survives power loss. Multi-file commits (mtls.WriteLogs)
// prepare every temp first and then Rename each into place.
func Rename(tmp, path string) error {
	if err := failpoint(StageRename, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: rename %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicfile: rename: %w", err)
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so renames and removals inside it are
// durable. Failures are returned (a caller mid-commit wants to know)
// but the rename has already landed in the namespace.
func SyncDir(dir string) error {
	if err := failpoint(StageSyncDir, dir); err != nil {
		return fmt.Errorf("atomicfile: sync dir %s: %w", dir, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicfile: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("atomicfile: sync dir: %w", err)
	}
	return nil
}
