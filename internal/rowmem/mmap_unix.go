//go:build unix

package rowmem

import "syscall"

// mapRegion maps size zeroed, private, anonymous bytes.
func mapRegion(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapRegion releases exactly what mapRegion returned.
func unmapRegion(region []byte) error { return syscall.Munmap(region) }
