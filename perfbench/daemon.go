package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one running dimsatd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// gcLines counts GODEBUG=gctrace lines on stderr (traced runs only).
	gcLines atomic.Int64
	stderr  bytes.Buffer
	mu      sync.Mutex // guards stderr
	done    chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs dimsatd on schemaPath with a fresh job directory under
// dir and returns once GET /readyz answers 200. Readiness is polled every
// millisecond, so the set-up time is not quantized by the poll.
func startDaemon(bin, schemaPath, dir string, checkpointEvery int, gctrace bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-jobs-dir", filepath.Join(dir, "jobs"),
		"-checkpoint-every", strconv.Itoa(checkpointEvery),
		schemaPath)
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Env = os.Environ()
	if gctrace {
		d.cmd.Env = append(d.cmd.Env, "GODEBUG=gctrace=1")
	}
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dimsatd: %w", err)
	}
	go d.drain(pipe)
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("dimsatd exited before ready: %s", d.log())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dimsatd not ready after 20s: %s", d.log())
		}
		time.Sleep(time.Millisecond)
	}
}

// drain reads dimsatd's stderr until it closes, counting gctrace lines and
// keeping the rest for error reports; it then reaps the process.
func (d *daemon) drain(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "gc ") {
			d.gcLines.Add(1)
			continue
		}
		d.mu.Lock()
		if d.stderr.Len() < 64<<10 {
			d.stderr.WriteString(line + "\n")
		}
		d.mu.Unlock()
	}
	d.cmd.Wait()
	close(d.done)
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited within ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTicks returns utime+stime of the process in clock ticks, from
// /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// Fields 14 and 15 of stat; f[0] is field 3.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 100

// rssPeakMB reads VmHWM, the peak resident set size, in MiB.
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// waitJobs polls GET /jobs until every listed job is terminal and returns
// the final views.
func waitJobs(ctx context.Context, c *http.Client, base string) ([]jobView, error) {
	for {
		var views []jobView
		if err := getJSON(ctx, c, base+"/jobs", &views); err != nil {
			return nil, err
		}
		pending := 0
		for _, v := range views {
			switch v.State {
			case "done", "failed", "cancelled":
			default:
				pending++
			}
		}
		if pending == 0 {
			return views, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%d jobs still pending: %w", pending, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// awaitJob polls GET /jobs/{id} until the job is terminal.
func awaitJob(ctx context.Context, c *http.Client, base, id string) error {
	ctx, cancel := context.WithTimeout(ctx, jobsWait)
	defer cancel()
	for {
		var v jobView
		if err := getJSON(ctx, c, base+"/jobs/"+id, &v); err != nil {
			return err
		}
		switch v.State {
		case "done", "failed", "cancelled":
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("job %s still %s: %w", id, v.State, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}
