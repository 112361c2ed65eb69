package main

// Resource readings of the server children from /proc.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux configuration Go runs on.
const clockTick = 100

// cpuSeconds sums user+system CPU time of the children.
func cpuSeconds(children []*child) float64 {
	total := 0.0
	for _, c := range children {
		data, err := os.ReadFile("/proc/" + strconv.Itoa(c.pid()) + "/stat")
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the line, 12 and 13 after the name.
		rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseFloat(f[11], 64)
		st, _ := strconv.ParseFloat(f[12], 64)
		total += (ut + st) / clockTick
	}
	return total
}

// rssMiB sums the children's peak resident set sizes (VmHWM).
func rssMiB(children []*child) float64 {
	total := 0.0
	for _, c := range children {
		total += statusKB(c.pid(), "VmHWM:") / 1024
	}
	return total
}

func statusKB(pid int, key string) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb
			}
		}
	}
	return 0
}

// storageBytesWritten reads write_bytes of /proc/<pid>/io: bytes the process
// caused to be sent to the storage layer. ok is false where the file is not
// available.
func storageBytesWritten(pid int) (n uint64, ok bool) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "write_bytes:") {
			n, err := strconv.ParseUint(strings.TrimSpace(strings.TrimPrefix(line, "write_bytes:")), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
