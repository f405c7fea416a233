// Atomic file-writing helpers shared by the checkpoint writers
// (cmd/battlesim and internal/server). The discipline lives here once:
// write the complete content to a uniquely named temp file in the
// target directory, fsync it so a crash cannot commit a rename ahead of
// the data blocks, and only then rename into place — a reader therefore
// sees either the old complete file or the new complete file, never a
// truncated mixture, and concurrent writers each stage their own temp
// file so the last rename wins whole.
package table

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// WriteTemp stages a fully written, fsynced temporary file in dir and
// returns its path; every failure path removes the temp file and
// returns the error. The caller owns the returned file: rename it into
// place (os.Rename is atomic within a filesystem) or remove it.
// Callers that need a plain atomic single-file write should use
// WriteFileAtomic instead. Kept exported for the crash tests, which stage
// torn writes through it.
func WriteTemp(dir, pattern string, write func(f *os.File) error) (string, error) {
	f, tmp, err := createTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	fail := func(e error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", e
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// tempSeq distinguishes concurrent createTemp calls within the process.
var tempSeq atomic.Uint64

// createTemp is os.CreateTemp with os.Create's permission semantics:
// CreateTemp hardcodes mode 0600, but checkpoints are shared state
// (backup jobs, cross-user restores), so the file is created with 0666
// filtered by the process umask — exactly what the os.Create-based code
// this package replaced produced. The "*" in pattern is replaced by a
// unique suffix; O_EXCL retries on collision.
func createTemp(dir, pattern string) (*os.File, string, error) {
	for try := 0; try < 10000; try++ {
		suffix := fmt.Sprintf("%d-%d", os.Getpid(), tempSeq.Add(1))
		name := filepath.Join(dir, strings.Replace(pattern, "*", suffix, 1))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		return f, name, nil
	}
	return nil, "", fmt.Errorf("table: cannot create temp file in %s for %s", dir, pattern)
}

// WriteFileAtomic writes path through a staged temp file and an atomic
// rename: on success the file's new content is complete and durable, on
// any failure the previous file (if one existed) is untouched and no
// temp litter remains.
func WriteFileAtomic(path string, write func(f *os.File) error) error {
	tmp, err := WriteTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*", write)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
