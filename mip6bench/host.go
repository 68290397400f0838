package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostStamp identifies the host and build that produced a result.
type hostStamp struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	ShardWorkers int    `json:"shard_workers"`
	GoVersion    string `json:"go_version"`
	Revision     string `json:"vcs_revision"`
	Modified     bool   `json:"vcs_modified"`
	CPUModel     string `json:"cpu_model"`
}

// workers is GOMAXPROCS for one run: at most two, so runs on hosts of
// different sizes stay comparable and never oversubscribe a small one.
func workers() int { return min(2, runtime.NumCPU()) }

// shardWorkers is the sharded kernel's ShardWorkers. One worker runs a
// window's regions in turn: the kernel's windows, barriers, mailboxes and
// split links all stay, but not the hand-offs between threads. On a shared
// 2-vCPU virtual machine those hand-offs made a two-worker cell 1.4 to 4
// times slower than a one-worker cell, depending on the hour.
const shardWorkers = 1

func stampHost() hostStamp {
	h := hostStamp{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ShardWorkers: shardWorkers,
		GoVersion:    runtime.Version(),
		CPUModel:     procField("/proc/cpuinfo", "model name"),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSBytes is the process's resident-set high-water mark (VmHWM).
func peakRSSBytes() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb * 1024
}

// allocBytes is the cumulative heap allocation of the process, TotalAlloc.
// ReadMemStats flushes every per-P allocation cache first, so the count
// is exact; runtime/metrics would leave out the partly used spans still
// cached, a bias of a few hundred kB on a small cell.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
