package rowmem

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// adviseHuge asks for transparent huge pages under b. The advice is what
// makes them happen where /sys/kernel/mm/transparent_hugepage/enabled says
// "madvise"; where it says "never", or the kernel has no THP, the call
// fails or is ignored and the block is served from base pages.
func adviseHuge(b []byte) { _ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) }

// AnonHugePageBytes returns how much of the process's anonymous memory is
// currently backed by transparent huge pages (AnonHugePages in
// /proc/self/smaps_rollup), 0 when the kernel does not say. The kernel
// walks every mapping to answer: call it per scrape, not per request.
func AnonHugePageBytes() int64 {
	data, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		return 0
	}
	const key = "AnonHugePages:"
	i := bytes.Index(data, []byte(key))
	if i < 0 {
		return 0
	}
	fields := bytes.Fields(data[i+len(key):])
	if len(fields) < 2 || string(fields[1]) != "kB" {
		return 0
	}
	kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}
