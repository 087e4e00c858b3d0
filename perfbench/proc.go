package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one spawned program process.
type child struct {
	name     string
	cmd      *exec.Cmd
	start    time.Time
	done     chan struct{}
	stopping bool // set under procSet.mu before the process is killed
	task     bool // ends by itself: keep all output, its exit is no failure
	logMu    sync.Mutex
	log      []byte // the process's combined output (servers: the tail only)
}

// procSet owns every process the run starts. stopAll kills and reaps them
// all; unexpectedExit reports any that ended without being stopped, which
// fails the run (a server that dies mid-run invalidates its numbers).
type procSet struct {
	mu     sync.Mutex
	kids   []*child
	exited []string
}

// start launches bin with args. The child is killed if this process dies
// first (Pdeathsig), so no server outlives the benchmark.
func (ps *procSet) start(name, bin string, args ...string) (*child, error) {
	return ps.spawn(&child{name: name, done: make(chan struct{})}, bin, args)
}

// startTask launches a process that exits by itself when its work is done
// (the fleet process); wait collects it.
func (ps *procSet) startTask(name, bin string, args ...string) (*child, error) {
	return ps.spawn(&child{name: name, task: true, done: make(chan struct{})}, bin, args)
}

func (ps *procSet) spawn(c *child, bin string, args []string) (*child, error) {
	name := c.name
	c.cmd = exec.Command(bin, args...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stdout = c
	c.cmd.Stderr = c
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.kids = append(ps.kids, c)
	ps.mu.Unlock()
	go func() {
		err := c.cmd.Wait()
		ps.mu.Lock()
		if !c.stopping && !c.task {
			ps.exited = append(ps.exited, fmt.Sprintf("%s exited mid-run (%v): %s", name, err, c.tail()))
		}
		ps.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// Write collects the child's output: all of a task's, the last 4 KiB of a
// server's (for error reports).
func (c *child) Write(p []byte) (int, error) {
	c.logMu.Lock()
	c.log = append(c.log, p...)
	if !c.task && len(c.log) > 4096 {
		c.log = append(c.log[:0], c.log[len(c.log)-4096:]...)
	}
	c.logMu.Unlock()
	return len(p), nil
}

func (c *child) tail() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return strings.TrimSpace(string(c.log))
}

// output returns everything the process has written so far.
func (c *child) output() string {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return string(c.log)
}

// wait waits up to timeout for a task to exit by itself, killing it after
// that, and reports whether it exited successfully.
func (ps *procSet) wait(c *child, timeout time.Duration) error {
	select {
	case <-c.done:
	case <-time.After(timeout):
		ps.stop(c)
		return fmt.Errorf("%s did not finish within %s", c.name, timeout)
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("%s failed (%v): %s", c.name, c.cmd.ProcessState, c.tail())
	}
	return nil
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// stop kills the process and waits until it has been reaped.
func (ps *procSet) stop(c *child) {
	if c == nil {
		return
	}
	ps.mu.Lock()
	c.stopping = true
	ps.mu.Unlock()
	_ = c.cmd.Process.Kill() // already exited is fine: done closes either way
	<-c.done
}

// stopAll stops every process started so far.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	kids := append([]*child(nil), ps.kids...)
	ps.mu.Unlock()
	for _, c := range kids {
		ps.stop(c)
	}
}

// unexpectedExit reports processes that ended without being stopped.
func (ps *procSet) unexpectedExit() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.exited) == 0 {
		return nil
	}
	return errors.New(strings.Join(ps.exited, "; "))
}

// freeAddr returns a loopback address with a port the kernel just handed
// out. The port is released before the server binds it, so every server
// answer is checked against the expected database hash.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && k == "VmHWM" {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 100

// cpuSeconds is the user+system CPU time a process has used so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// After ')' come state(3) ... utime(14) stime(15): indices 11 and 12.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return (ut + st) / clockTick, nil
}

// selfCPUSeconds is this process's user+system CPU time, at microsecond
// resolution.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sourceDigest hashes the Go sources under the working directory: the
// stand-in for a commit id when the tree is not a git checkout.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00") //nolint:errcheck // hash writes never fail
		io.Copy(h, f)               //nolint:errcheck // hash writes never fail
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
