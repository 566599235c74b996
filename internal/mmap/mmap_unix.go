//go:build unix

package mmap

import (
	"fmt"
	"os"
	"syscall"
)

func openPlatform(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		// mmap of length 0 is EINVAL; an empty file is an empty mapping.
		return FromBytes([]byte{}), nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmap: %s is %d bytes, too large for this address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap: map %s: %w", path, err)
	}
	return &Mapping{data: data}, nil
}

func unmapPlatform(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return syscall.Munmap(data)
}
