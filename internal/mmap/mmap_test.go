package mmap

import (
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func writeFile(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenReadsBytes(t *testing.T) {
	want := []byte("hello, mapping")
	m, err := Open(writeFile(t, want))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if string(m.Bytes()) != string(want) {
		t.Fatalf("Bytes() = %q, want %q", m.Bytes(), want)
	}
	if m.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", m.Len(), len(want))
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	m, err := Open(writeFile(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", m.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRefcountLifecycle exercises the core contract: retained views
// keep the bytes valid past the opener's Close, and the final Close
// releases. Run under -race this also checks the atomics publish
// correctly across goroutines.
func TestRefcountLifecycle(t *testing.T) {
	m, err := Open(writeFile(t, []byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if err != nil {
		t.Fatal(err)
	}
	unmapped := false
	m.SetOnUnmap(func() { unmapped = true })

	const views = 8
	var wg sync.WaitGroup
	for i := 0; i < views; i++ {
		v := m.Retain()
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := v.Bytes()
			for j := range b {
				if b[j] != byte(j+1) {
					t.Errorf("byte %d = %d", j, b[j])
					break
				}
			}
			if err := v.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	// Opener drops its reference while view goroutines are reading:
	// the mapping must survive until the last view closes.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !unmapped {
		t.Fatal("onUnmap did not run after the last Close")
	}
	if m.Bytes() != nil {
		t.Fatal("Bytes() non-nil after final Close")
	}
}

// TestFromBytesLifecycle: a heap-backed Mapping shares the file
// mapping's refcount contract and its typed casts alias the caller's
// bytes.
func TestFromBytesLifecycle(t *testing.T) {
	data := make([]byte, 16)
	binary.LittleEndian.PutUint32(data[4:], 7)
	m := FromBytes(data)
	unmapped := false
	m.SetOnUnmap(func() { unmapped = true })
	if CastsSupported() {
		vs, err := Int32s(m.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 4 || vs[1] != 7 || &vs[0] != (*int32)(unsafe.Pointer(&data[0])) {
			t.Fatalf("cast over heap bytes = %v, want an alias with vs[1] = 7", vs)
		}
	}
	v := m.Retain()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if unmapped || m.Len() != len(data) {
		t.Fatal("bytes released while a reference was live")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if !unmapped || m.Bytes() != nil {
		t.Fatal("last Close did not release the bytes")
	}
	if err := m.Close(); err == nil {
		t.Fatal("Close past the last reference succeeded")
	}
}

func TestOverClose(t *testing.T) {
	m, err := Open(writeFile(t, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err == nil {
		t.Fatal("double Close succeeded")
	}
}

func TestRetainAfterReleasePanics(t *testing.T) {
	m, err := Open(writeFile(t, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after release did not panic")
		}
	}()
	m.Retain()
}

func TestTypedCasts(t *testing.T) {
	if !CastsSupported() {
		t.Skip("big-endian hardware")
	}
	buf := make([]byte, 0, 64)
	for _, v := range []int32{-1, 0, 7, 1 << 20} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, v := range []float64{0.25, -3.5, 1e-9} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	m, err := Open(writeFile(t, buf))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ints, err := Int32s(m.Bytes()[:16])
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{-1, 0, 7, 1 << 20}; len(ints) != 4 || ints[0] != want[0] || ints[3] != want[3] {
		t.Fatalf("Int32s = %v, want %v", ints, want)
	}
	floats, err := Float64s(m.Bytes()[16:40])
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.25, -3.5, 1e-9}; len(floats) != 3 || floats[1] != want[1] || floats[2] != want[2] {
		t.Fatalf("Float64s = %v, want %v", floats, want)
	}
}

func TestCastRejectsBadLength(t *testing.T) {
	if _, err := Int32s(make([]byte, 7)); err == nil {
		t.Fatal("Int32s accepted length 7")
	}
	if _, err := Float64s(make([]byte, 12)); err == nil {
		t.Fatal("Float64s accepted length 12")
	}
}

func TestCastRejectsMisaligned(t *testing.T) {
	if !CastsSupported() {
		t.Skip("big-endian hardware")
	}
	buf := make([]byte, 64)
	// A page-aligned mapping offset by an odd byte count cannot satisfy
	// the element alignment; the cast must refuse, not fabricate.
	if _, err := Float64s(buf[1:57]); err == nil {
		t.Fatal("Float64s accepted misaligned slice")
	}
	if _, err := Int32s(buf[2:10]); err == nil {
		t.Fatal("Int32s accepted misaligned slice")
	}
}

func TestCastEmpty(t *testing.T) {
	if !CastsSupported() {
		t.Skip("big-endian hardware")
	}
	ints, err := Int32s(nil)
	if err != nil || len(ints) != 0 {
		t.Fatalf("Int32s(nil) = %v, %v", ints, err)
	}
}

// TestWriteFaults proves the pages really are PROT_READ: a subprocess
// that writes through the mapping must die on SIGSEGV/SIGBUS. Runs the
// test binary re-exec'd so the fault doesn't take down the suite.
func TestWriteFaults(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("page-protection fault test is linux-only")
	}
	if os.Getenv("MMAP_WRITE_CHILD") == "1" {
		m, err := Open(os.Getenv("MMAP_WRITE_PATH"))
		if err != nil {
			os.Exit(3)
		}
		m.Bytes()[0] = 0xFF // must fault
		os.Exit(0)          // unreachable on a real mapping
	}
	path := writeFile(t, []byte("readonly"))
	cmd := exec.Command(os.Args[0], "-test.run", "^TestWriteFaults$", "-test.v")
	cmd.Env = append(os.Environ(), "MMAP_WRITE_CHILD=1", "MMAP_WRITE_PATH="+path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child wrote through a PROT_READ mapping without faulting:\n%s", out)
	}
	b, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if string(b) != "readonly" {
		t.Fatalf("file mutated to %q", b)
	}
}
