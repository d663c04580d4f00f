package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

var pageSize = int64(os.Getpagesize())

// cpuSeconds is the CPU time a process has used so far: the scheduler's
// own nanosecond run time of every thread (/proc/<pid>/task/*/schedstat).
// utime+stime of /proc/<pid>/stat are sampled at the 100 Hz tick, too
// coarse for daemons that wake a thousand times a second for
// microseconds each.
func cpuSeconds(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			return 0, fmt.Errorf("/proc/%d/task/%s/schedstat: empty", pid, t.Name())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

// rssBytes is the resident set size of a process.
func rssBytes(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/%d/statm: short", pid)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	return pages * pageSize, err
}

// readChars is rchar of /proc/<pid>/io: bytes the process has read
// through any read-like system call, sockets included.
func readChars(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io: no rchar", pid)
}
