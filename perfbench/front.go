package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// front is one thinnerd child process: the program under test for the
// live workloads. The benchmark observes it only from outside — its
// HTTP endpoints and the kernel's per-task CPU accounting.
type front struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	log      lockedBuffer
	exited   chan struct{}
	waitErr  error

	// scraper uses short-lived connections so the occasional /metrics
	// and /trace reads never hold a connection to the front open.
	scraper *http.Client
}

// lockedBuffer collects the child's stderr (exec copies it from its
// own goroutine) for the error message when the front misbehaves.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.b.Len() > 1<<20 {
		return len(p), nil
	}
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// freePort picks an unused loopback port below the kernel's ephemeral
// range, other than avoid. A port from the ephemeral range could go to
// one of the benchmark's own outgoing connections (the /healthz polls
// open one each) between this check and thinnerd's bind, and thinnerd
// would then exit at start-up.
func freePort(avoid string) (string, error) {
	lo := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if n, err := strconv.Atoi(f[0]); err == nil {
				lo = n
			}
		}
	}
	base := max(lo-10000, 1024)
	for i := 0; i < 100 && base < lo; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", base+rand.IntN(lo-base))
		if addr == avoid {
			continue
		}
		if ln, err := net.Listen("tcp", addr); err == nil {
			ln.Close()
			return addr, nil
		}
	}
	// No room below the ephemeral range: let the kernel choose.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startFront execs thinnerd with args plus fresh listen addresses and
// returns once /healthz answers 200.
func startFront(bin string, args []string, withWire bool) (*front, error) {
	f := &front{
		exited:  make(chan struct{}),
		scraper: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second},
	}
	var err error
	if f.httpAddr, err = freePort(""); err != nil {
		return nil, err
	}
	full := append([]string{"-addr", f.httpAddr, "-drain", "1s"}, args...)
	if withWire {
		if f.wireAddr, err = freePort(f.httpAddr); err != nil {
			return nil, err
		}
		full = append(full, "-wire-addr", f.wireAddr)
	}
	f.cmd = exec.Command(bin, full...)
	// The kernel kills the front if the benchmark dies first.
	f.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	f.cmd.Stdout = &f.log
	stderr, err := f.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := f.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start thinnerd: %w", err)
	}
	// thinnerd logs its HTTP address once its listeners are bound.
	// Probing /healthz as that line arrives keeps the 1 ms poll
	// interval out of setup_s; the poll still finds a front that logs
	// nothing.
	listening := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			fmt.Fprintln(&f.log, sc.Text())
			if !signalled && strings.Contains(sc.Text(), f.httpAddr) {
				signalled = true
				close(listening)
			}
		}
		io.Copy(io.Discard, stderr)
		f.waitErr = f.cmd.Wait()
		close(f.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-f.exited:
			return nil, fmt.Errorf("thinnerd exited during start-up (%v): %s", f.waitErr, f.log.String())
		case <-listening:
			listening = nil // probe now, then keep polling
		case <-time.After(time.Millisecond):
		}
		if f.healthy() {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("thinnerd not healthy within 20s: %s", f.log.String())
		}
	}
}

// healthy reports whether /healthz answers 200.
func (f *front) healthy() bool {
	resp, err := f.scraper.Get("http://" + f.httpAddr + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// alive reports whether the child is still running.
func (f *front) alive() bool {
	select {
	case <-f.exited:
		return false
	default:
		return true
	}
}

// stop terminates the child, waits for it, and returns its peak RSS
// in MB: VmHWM from /proc, read just before the signal. The exited
// child's rusage would not do: Go starts children with vfork, and
// Linux charges a child the peak RSS of the image it replaced at exec,
// which is the benchmark's own.
func (f *front) stop() float64 {
	var peak float64
	if f.alive() {
		peak = f.peakRSSMB()
		f.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-f.exited:
		case <-time.After(3 * time.Second):
			f.cmd.Process.Kill()
			<-f.exited
		}
	}
	return peak
}

// peakRSSMB reads the running child's VmHWM (peak resident set) in MB.
func (f *front) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", f.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpu returns the child's CPU time so far, summed from every task's
// schedstat (nanosecond resolution, unlike the 10 ms ticks of
// /proc/<pid>/stat).
func (f *front) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", f.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("thinnerd cpu: %w", err)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the task exited between ReadDir and here
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("thinnerd cpu: parse %q: %w", fields[0], err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// scrape is one read of the front's /metrics counters, bracketed by
// the generator clock readings taken just before the request and just
// after the response: the counters were read somewhere in between.
// cpu is the front's CPU time read right after.
type scrape struct {
	sent, recv int64
	v          map[string]float64
	cpu        time.Duration
}

func (s scrape) get(name string) float64 { return s.v[name] }

// scrapeMetrics reads /metrics. Only unlabelled samples are kept (the
// histogram buckets are not needed: latencies come from exact samples).
func (f *front) scrapeMetrics(clock *clock) (scrape, error) {
	s := scrape{sent: clock.now(), v: make(map[string]float64)}
	resp, err := f.scraper.Get("http://" + f.httpAddr + "/metrics")
	if err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return s, fmt.Errorf("scrape /metrics: %q: %w", line, err)
		}
		s.v[name] = x
	}
	s.recv = clock.now()
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	for _, name := range scraped {
		if _, ok := s.v[name]; !ok {
			return s, fmt.Errorf("scrape /metrics: no %s", name)
		}
	}
	s.cpu, err = f.cpu()
	return s, err
}

// scraped are the /metrics samples the benchmark reads; a front that
// stops serving one fails the run instead of reading as 0.
var scraped = []string{
	"speakup_served_total", "speakup_admitted_total", "speakup_admitted_direct_total",
	"speakup_auctions_total", "speakup_evicted_total", "speakup_ingest_bytes_total",
	"speakup_paid_bytes_total", "speakup_wasted_bytes_total", "speakup_wire_frames_total",
	"speakup_open_channels", "speakup_contenders", "speakup_going_price_bytes", "speakup_gomaxprocs",
}

// traceRecord is the subset of a /trace NDJSON line the benchmark reads.
type traceRecord struct {
	ID            uint64  `json:"id"`
	Verdict       string  `json:"verdict"`
	ArriveNS      int64   `json:"arrive_ns"`
	FirstCreditNS int64   `json:"first_credit_ns"`
	LastCreditNS  int64   `json:"last_credit_ns"`
	Credits       uint32  `json:"credits"`
	AuctionsLost  uint32  `json:"auctions_lost"`
	WaitMS        float64 `json:"wait_ms"`
}

// scrapeTrace reads the front's most recent completed trace records.
func (f *front) scrapeTrace(ctx context.Context, n int) ([]traceRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("http://%s/trace?n=%d", f.httpAddr, n), nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.scraper.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /trace: status %d", resp.StatusCode)
	}
	var out []traceRecord
	dec := json.NewDecoder(resp.Body)
	for {
		var r traceRecord
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("scrape /trace: %w", err)
		}
		out = append(out, r)
	}
}
