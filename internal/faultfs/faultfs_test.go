package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	f, err := fsys.CreateTemp(dir, "x-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "final")
	if err := fsys.Rename(f.Name(), dst); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	data, err := fsys.ReadFile(dst)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	des, err := fsys.ReadDir(dir)
	if err != nil || len(des) != 1 {
		t.Fatalf("ReadDir = %v, %v", des, err)
	}
	if _, err := fsys.Stat(dst); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(dst); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorFailNth(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.FailNth(OpWrite, 2, nil)

	f, err := in.CreateTemp(dir, "x-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatalf("write 1 should pass: %v", err)
	}
	if _, err := f.Write([]byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 = %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("c")); err != nil {
		t.Fatalf("write 3 should pass (rule consumed): %v", err)
	}
	if got := in.Count(OpWrite); got != 3 {
		t.Fatalf("Count(write) = %d, want 3", got)
	}
}

func TestInjectorShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS{})
	in.ShortWriteNth(1)
	f, err := in.CreateTemp(dir, "x-*")
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("0123456789"))
	f.Close()
	if !errors.Is(werr, ErrNoSpace) || !errors.Is(werr, ErrInjected) || !errors.Is(werr, syscall.ENOSPC) {
		t.Fatalf("short write err = %v, want ErrNoSpace (ENOSPC, injected)", werr)
	}
	if n != 5 {
		t.Fatalf("short write wrote %d bytes, want 5", n)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil || string(data) != "01234" {
		t.Fatalf("on-disk torn content = %q, %v", data, err)
	}
}

func TestInjectorOpAny(t *testing.T) {
	in := NewInjector(OS{})
	in.FailNth(OpAny, 3, nil)
	if err := in.MkdirAll(filepath.Join(t.TempDir(), "a"), 0o755); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if _, err := in.Stat("/"); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if _, err := in.ReadFile("/does-not-matter"); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 3 = %v, want ErrInjected", err)
	}
}

func TestInjectorReset(t *testing.T) {
	in := NewInjector(nil)
	in.FailNth(OpRename, 1, nil)
	in.Reset()
	a := filepath.Join(t.TempDir(), "a")
	if err := os.WriteFile(a, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := in.Rename(a, a+"2"); err != nil {
		t.Fatalf("Rename after Reset = %v, want nil", err)
	}
	if in.Count(OpRename) != 1 {
		t.Fatalf("Count after Reset = %d, want 1", in.Count(OpRename))
	}
}

// TestInjectorConcurrentSchedulesDoNotDrift pins the counting semantics
// when two rules watch the same op: every occurrence decrements every
// matching rule, so "fail the 2nd read" and "fail the 3rd read" fire on
// the 2nd and 3rd reads — not on the 2nd and 4th, which is what happens
// if a firing rule swallows the occurrence before later rules see it.
func TestInjectorConcurrentSchedulesDoNotDrift(t *testing.T) {
	in := NewInjector(nil)
	in.FailNth(OpRead, 2, nil)
	in.FailNth(OpRead, 3, nil)

	tmp := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := in.ReadFile(tmp); err != nil {
		t.Fatalf("read 1 should pass: %v", err)
	}
	if _, err := in.ReadFile(tmp); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2 = %v, want ErrInjected (first rule)", err)
	}
	if _, err := in.ReadFile(tmp); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 3 = %v, want ErrInjected (second rule, no drift)", err)
	}
	if _, err := in.ReadFile(tmp); err != nil {
		t.Fatalf("read 4 should pass (both rules consumed): %v", err)
	}
}

// TestOpenAppendAndWritten covers the journal op: OpenAppend creates the
// file, each open writes after the current end, a fault is schedulable on
// the open itself, and Written counts only the bytes that reached the
// inner FS (half of a short write).
func TestOpenAppendAndWritten(t *testing.T) {
	name := filepath.Join(t.TempDir(), "j")
	in := NewInjector(nil)
	for _, chunk := range []string{"ab", "cd"} {
		f, err := in.OpenAppend(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := os.ReadFile(name); err != nil || string(data) != "abcd" {
		t.Fatalf("appended content = %q, %v", data, err)
	}
	if in.Count(OpAppend) != 2 || in.Written() != 4 {
		t.Fatalf("Count(append) = %d, Written = %d; want 2, 4", in.Count(OpAppend), in.Written())
	}

	in.FailNth(OpAppend, 1, nil)
	if _, err := in.OpenAppend(name); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted OpenAppend = %v, want ErrInjected", err)
	}
	in.ShortWriteNth(1)
	f, err := in.OpenAppend(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("efgh")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("short append = %v, want ErrNoSpace", err)
	}
	f.Close()
	if data, _ := os.ReadFile(name); string(data) != "abcdef" {
		t.Fatalf("torn append left %q, want abcdef", data)
	}
	if in.Written() != 6 {
		t.Fatalf("Written after short write = %d, want 6", in.Written())
	}
	in.Reset()
	if in.Written() != 0 {
		t.Fatalf("Written after Reset = %d", in.Written())
	}
}
