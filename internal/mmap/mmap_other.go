//go:build !unix

package mmap

import "os"

// Platforms without syscall.Mmap get a heap-backed read of the file:
// the refcount lifecycle and typed casts behave identically, only the
// page-cache sharing and hardware write protection are lost.
func openPlatform(path string) (*Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromBytes(data), nil
}

func unmapPlatform([]byte) error { return nil }
