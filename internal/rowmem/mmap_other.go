//go:build !unix

package rowmem

import "errors"

// Without mmap every block is a heap slice.
func mapRegion(size int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapRegion(region []byte) error { return errors.ErrUnsupported }
