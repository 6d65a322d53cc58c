package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one rmsserve process the benchmark started.
type proc struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time
	done  chan struct{} // closed once the process has exited and been reaped
}

// procs tracks every live child so any exit path can stop them.
var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches bin with args plus -addr, logging to logPath.
func startServer(bin string, args []string, logPath string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	p := &proc{cmd: cmd, addr: addr, done: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		procsMu.Lock()
		delete(procs, p)
		procsMu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// stop sends sig and waits until the process has exited.
func (p *proc) stop(sig syscall.Signal) {
	_ = p.cmd.Process.Signal(sig) // fails only when it has already exited
	<-p.done
}

// stopAll kills every child still running and waits for each.
func stopAll() {
	procsMu.Lock()
	live := make([]*proc, 0, len(procs))
	for p := range procs {
		live = append(live, p)
	}
	procsMu.Unlock()
	for _, p := range live {
		p.stop(syscall.SIGKILL)
	}
}

// waitFor polls path until ok accepts the response, and returns the time
// since the process started. It fails if the process exits or timeout
// passes first.
func (p *proc) waitFor(path string, timeout time.Duration, ok func(code int, body []byte) bool) (time.Duration, error) {
	deadline := p.start.Add(timeout)
	for {
		code, body, err := fetch(p.addr, path)
		now := time.Now()
		if err == nil && ok(code, body) {
			return now.Sub(p.start), nil
		}
		select {
		case <-p.done:
			return 0, fmt.Errorf("rmsserve on %s exited before %s answered", p.addr, path)
		default:
		}
		if now.After(deadline) {
			return 0, fmt.Errorf("rmsserve on %s: %s not ready after %v (last: %d %s %v)", p.addr, path, timeout, code, bytes.TrimSpace(body), err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *proc) waitReady(timeout time.Duration) (time.Duration, error) {
	return p.waitFor("/readyz", timeout, func(code int, _ []byte) bool { return code == 200 })
}

// cpuTime returns the process's utime+stime from /proc/<pid>/stat.
func (p *proc) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", s)
	}
	const ticksPerSec = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSec, nil
}

// peakRSS returns VmHWM in MiB.
func (p *proc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// metricsText fetches the Prometheus text of /metrics.
func (p *proc) metricsText() ([]byte, error) {
	code, body, err := fetch(p.addr, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("/metrics answered %d", code)
	}
	return body, nil
}

// parseMetrics parses Prometheus text exposition: one "series value" per
// non-comment line.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
