package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// epoch is the zero of every timestamp the benchmark takes.
var epoch = time.Now()

// clock returns monotonic nanoseconds since epoch: one clock read.
func clock() int64 { return int64(time.Since(epoch)) }

// procStat is this process's cumulative CPU and allocation counters at
// one instant; two of them bracket a measured window.
type procStat struct {
	at       int64 // clock()
	cpu      time.Duration
	allocs   uint64 // heap bytes allocated
	gcCycles uint64
	gcPause  time.Duration
}

func readProc() procStat {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStat{
		at:       clock(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
}

// window is the difference of two procStats with the task count
// completed between them, reduced to the per-task figures reported.
type window struct {
	start, end procStat
	tasks      int64
}

func (w window) seconds() float64 { return float64(w.end.at-w.start.at) / 1e9 }

// put puts the window's rate and per-task costs into f.
func (w window) put(f figures) {
	n := float64(w.tasks)
	f["tasks_per_s"] = n / w.seconds()
	f["cpu_us_per_task"] = float64(w.end.cpu-w.start.cpu) / 1e3 / n
	f["alloc_bytes_per_task"] = float64(w.end.allocs-w.start.allocs) / n
}

// environment is recorded with every run.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit identifies the source under test: the git HEAD when the
// checkout is a repository (with "+dirty" for uncommitted changes),
// else "src-" and a hash of every Go source and module file, so runs of
// an exported tree can still be told apart.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		head := strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			head += "+dirty"
		}
		return head
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
