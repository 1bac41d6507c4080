package main

// The system under test as a client sees it: building ./cmd/watchman,
// running `watchman serve` with its default flags as a child process, and
// the two HTTP clients the benchmark uses — a minimal keep-alive HTTP/1.1
// connection that writes pre-encoded reference requests, and net/http for
// the rare control calls (/stats, /v1/invalidate, /v1/snapshot).

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"syscall"
	"time"

	"repro/internal/server"
)

// buildDir, relative to the repository root, holds everything the
// benchmark builds or writes outside bench/out: the daemon binary and the
// snapshot files of the churn workload.
const buildDir = ".bench_build"

// repoRoot finds the module root (the directory holding go.mod) at or
// above the working directory: `go run ./bench` starts there, `go test`
// starts in bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/watchman into the build directory and reports
// how long the build took (a cached build is a staleness check).
func buildDaemon(root string) (bin string, seconds float64, err error) {
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return "", 0, err
	}
	bin = filepath.Join(root, buildDir, "watchman")
	t0 := now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/watchman")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/watchman: %w\n%s", err, out)
	}
	return bin, since(t0).Seconds(), nil
}

// daemon is one running `watchman serve` process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	base   string
	client *http.Client
	stderr bytes.Buffer
	exited chan struct{}
	// bootMS is the time from process start to the first 200 on /healthz.
	bootMS float64
}

// startDaemon runs `watchman serve` on a free loopback port with default
// flags: only -addr, -cache-bytes and (when snapshotPath is set)
// -snapshot-path are given. It returns once /healthz answers 200.
func startDaemon(bin string, capacity int64, snapshotPath string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		// The port is free when probed; a rare race with another process
		// taking it shows as a failed boot and is retried on a new port.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		d, err := bootDaemon(bin, addr, capacity, snapshotPath)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// startFor starts the daemon a workload's stream needs: sized to the
// stream's cache and, for a churn workload, persisting to a fresh file.
func startFor(cfg runConfig, st *stream) (*daemon, error) {
	snapshotPath := ""
	if st.spec.churn {
		snapshotPath = snapshotFile(cfg.root, st.spec.name, "serve")
		os.Remove(snapshotPath) // a leftover file would be restored on boot
	}
	return startDaemon(cfg.bin, st.capacity, snapshotPath)
}

func bootDaemon(bin, addr string, capacity int64, snapshotPath string) (*daemon, error) {
	args := []string{"serve", "-addr", addr, "-cache-bytes", strconv.FormatInt(capacity, 10)}
	if snapshotPath != "" {
		args = append(args, "-snapshot-path", snapshotPath)
	}
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		addr:   addr,
		base:   "http://" + addr,
		client: &http.Client{Timeout: 30 * time.Second},
		exited: make(chan struct{}),
	}
	d.cmd.Stderr = &d.stderr
	t0 := now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		// Wait's error is the exit status, which stop reads from
		// ProcessState.
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootMS = ms(since(t0))
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("watchman serve exited during boot: %s", d.stderr.String())
		default:
		}
		if since(t0) > 10*time.Second {
			d.kill()
			return nil, fmt.Errorf("watchman serve did not answer /healthz within 10s: %s", d.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends the process without a graceful shutdown and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is the only failure
	<-d.exited
}

// peakRSSMiB reads a process's resident-set high-water mark from
// /proc/<pid>/status. A child's rusage cannot be used for this: a child
// started with vfork inherits the parent's peak across exec, so its
// ru_maxrss is never below the generator's own resident set.
func peakRSSMiB(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/<pid>/status")
}

// resetPeakRSS restarts this process's resident-set high-water mark, so
// that a workload's peak does not include the workloads run before it.
// Where the kernel refuses, the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stop reads the process's peak resident set, sends SIGTERM (graceful
// shutdown, final snapshot flush), waits for the process to end and
// returns its CPU time (user plus system, in seconds) and that peak.
func (d *daemon) stop() (cpuSeconds, peakMiB float64, err error) {
	d.client.CloseIdleConnections()
	peakMiB, err = peakRSSMiB(d.cmd.Process.Pid)
	if err != nil {
		d.kill()
		return 0, 0, fmt.Errorf("reading the server's peak resident set: %w", err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, 0, fmt.Errorf("signalling watchman serve: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
		return 0, 0, fmt.Errorf("watchman serve ignored SIGTERM for 20s: %s", d.stderr.String())
	}
	ps := d.cmd.ProcessState
	if !ps.Success() {
		return 0, 0, fmt.Errorf("watchman serve exited with %v: %s", ps, d.stderr.String())
	}
	return (ps.UserTime() + ps.SystemTime()).Seconds(), peakMiB, nil
}

// selfCPU reads the CPU seconds, user plus system, the benchmark process
// has used so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// call performs one control request and decodes the 200 reply into out.
func (d *daemon) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// stats reads GET /stats.
func (d *daemon) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	err := d.call(http.MethodGet, "/stats", nil, &st)
	return st, err
}

// invalidate posts /v1/invalidate for one relation.
func (d *daemon) invalidate(rel string) error {
	return d.call(http.MethodPost, "/v1/invalidate", server.InvalidateRequest{Relations: []string{rel}}, &server.InvalidateResponse{})
}

// snapshot posts /v1/snapshot.
func (d *daemon) snapshot() error {
	return d.call(http.MethodPost, "/v1/snapshot", nil, &server.SnapshotResponse{})
}

// conn is one keep-alive HTTP/1.1 connection carrying reference requests.
// It writes the stream's pre-encoded bytes and parses just enough of the
// reply — status, Content-Length, the hit flag — so that the generator's
// own CPU stays small beside the server's.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

var (
	hitTrue       = []byte(`{"hit":true`)
	hitFalse      = []byte(`{"hit":false`)
	contentLength = []byte("Content-Length: ")
)

// reference sends one encoded request and reads its reply. Any transport
// error, non-200 status, unframed body or reply without a hit flag is an
// error; the caller counts it as a failed operation.
func (c *conn) reference(wire []byte) (hit bool, err error) {
	if _, err := c.c.Write(wire); err != nil {
		return false, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if len(line) < 12 || string(line[9:12]) != "200" {
		return false, fmt.Errorf("status line %q", bytes.TrimSpace(line))
	}
	length := -1
	for {
		line, err = c.r.ReadSlice('\n')
		if err != nil {
			return false, err
		}
		if len(line) <= 2 {
			break
		}
		if bytes.HasPrefix(line, contentLength) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(contentLength):])))
			if err != nil {
				return false, fmt.Errorf("content length: %w", err)
			}
		}
	}
	if length < 0 || length > c.r.Size() {
		return false, fmt.Errorf("reply without a usable Content-Length (%d)", length)
	}
	body, err := c.r.Peek(length)
	if err != nil {
		return false, err
	}
	switch {
	case bytes.HasPrefix(body, hitTrue):
		hit = true
	case bytes.HasPrefix(body, hitFalse):
	default:
		return false, fmt.Errorf("reply without a hit flag: %q", body)
	}
	_, err = c.r.Discard(length)
	return hit, err
}
