//go:build !linux

package rowmem

// No transparent huge pages to ask for.
func adviseHuge(b []byte) {}

// AnonHugePageBytes returns 0: the platform does not report it.
func AnonHugePageBytes() int64 { return 0 }
