package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// harness owns everything a run creates: the state directory, the child
// processes and the tracer. All of it lives inside the checkout (under
// .bench_build/), never in a fixed port or a shared temp directory.
type harness struct {
	seed    int64
	seconds time.Duration
	traced  bool

	root     string // checkout root (the directory of the repro go.mod)
	buildDir string
	state    string // one MkdirTemp per run, removed on every exit path
	tr       *tracer

	scrapes map[string]map[string]float64 // "<node>.<before|after>" → series

	// Follower lag seen while the timed phases ran (traced runs).
	maxLag, lagPolls atomic.Int64

	mu    sync.Mutex
	procs []*proc
	once  sync.Once
}

func newHarness(seed int64, seconds time.Duration, traced bool) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{seed: seed, seconds: seconds, traced: traced, root: root,
		buildDir: filepath.Join(root, ".bench_build"), scrapes: map[string]map[string]float64{}}
	if err := os.MkdirAll(filepath.Join(h.buildDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	if h.state, err = os.MkdirTemp(h.buildDir, "run-"); err != nil {
		return nil, err
	}
	h.tr = newTracer(traced)
	return h, nil
}

var errNoRoot = errors.New("no go.mod with 'module repro' above the working directory: run from a checkout of the repository")

// findRoot walks up from the working directory to the go.mod of module
// repro, so the harness works from the checkout root (bench/run.sh) and
// from bench/ (go run -C bench .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			first, _, _ := strings.Cut(string(b), "\n")
			if strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errNoRoot
		}
		dir = parent
	}
}

// build compiles the daemons under test into .bench_build/bin. It is not
// part of setup_s. A checkout is one commit, so the build is incremental
// against the cache and a no-op after the first run.
func (h *harness) build(w workload) error {
	if w.batch {
		return nil
	}
	cmd := exec.Command("go", "build", "-o", filepath.Join(h.buildDir, "bin")+string(filepath.Separator),
		"./cmd/cfdserve", "./cmd/cfdrouter")
	cmd.Dir = h.root
	cmd.Env = goEnv(h.buildDir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build of the daemons failed: %v\n%s", err, tail(out, 4096))
	}
	return nil
}

// goEnv returns the environment for a go build: the caller's, plus a
// GOCACHE inside the checkout when the default one is unusable (no HOME,
// read-only home directory). Nothing is fetched from the network.
func goEnv(buildDir string) []string {
	env := append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
	if os.Getenv("GOCACHE") != "" {
		return env
	}
	if out, err := exec.Command("go", "env", "GOCACHE").Output(); err == nil {
		dir := strings.TrimSpace(string(out))
		if dir != "" && dir != "off" && os.MkdirAll(dir, 0o755) == nil {
			if f, err := os.CreateTemp(dir, "probe"); err == nil {
				f.Close()
				os.Remove(f.Name())
				return env
			}
		}
	}
	return append(env, "GOCACHE="+filepath.Join(buildDir, "gocache"))
}

// progress writes one line to standard error with the time since the
// run began: where a slow or stuck run is spending its time.
func (h *harness) progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: %6.1fs %s\n", time.Since(h.tr.t0).Seconds(), fmt.Sprintf(format, args...))
}

func (h *harness) bin(name string) string { return filepath.Join(h.buildDir, "bin", name) }

// cleanup stops every child and removes the state directory. Safe to
// call more than once and from any goroutine.
func (h *harness) cleanup() {
	h.once.Do(func() {
		h.mu.Lock()
		procs := append([]*proc(nil), h.procs...)
		h.mu.Unlock()
		for _, p := range procs {
			p.kill()
		}
		os.RemoveAll(h.state)
	})
}

// fail is the single loud exit: one line saying why, the stderr tail of
// every child, teardown, exit 1. No result line is printed.
func (h *harness) fail(err error) {
	fmt.Fprintf(os.Stderr, "bench: FAILED: %v\n", err)
	h.mu.Lock()
	procs := append([]*proc(nil), h.procs...)
	h.mu.Unlock()
	for _, p := range procs {
		if t := p.stderr.String(); t != "" {
			fmt.Fprintf(os.Stderr, "--- stderr tail of %s (pid %d) ---\n%s\n", p.name, p.pid, t)
		}
	}
	h.cleanup()
	os.Exit(1)
}

// proc is one daemon under test, in its own process group.
type proc struct {
	name   string
	pid    int
	addr   string // host:port parsed from the stdout banner
	walDir string // its -wal-dir, for a restart after SIGKILL
	stderr *tailBuf
	done   chan struct{} // closed when Wait returned
	start  time.Time     // when exec was called
}

var bannerAddr = regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)

// spawn starts a daemon on 127.0.0.1:0 (or the given address) and waits
// for its banner, which carries the address it bound.
func (h *harness) spawn(name, binary string, args ...string) (*proc, error) {
	cmd := exec.Command(h.bin(binary), args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Dir = h.state
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, stderr: &tailBuf{max: 4096}, done: make(chan struct{})}
	cmd.Stderr = p.stderr
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p.pid = cmd.Process.Pid
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()

	banner := make(chan string, 1)
	go func() {
		r := bufio.NewReader(stdout)
		line, _ := r.ReadString('\n')
		banner <- line
		_, _ = io.Copy(io.Discard, r) // keep the pipe drained
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case line := <-banner:
		m := bannerAddr.FindStringSubmatch(line)
		if m == nil {
			p.kill()
			return nil, fmt.Errorf("%s: no listen address in banner %q; stderr: %s", name, strings.TrimSpace(line), p.stderr.String())
		}
		p.addr = m[1]
		return p, nil
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s: no banner within 60 s; stderr: %s", name, p.stderr.String())
	}
}

// kill SIGKILLs the child's process group and waits until it has ended.
func (p *proc) kill() {
	_ = syscall.Kill(-p.pid, syscall.SIGKILL)
	<-p.done
}

func (p *proc) url() string { return "http://" + p.addr }

// vmHWMkB is the process's peak resident set, from /proc/<pid>/status.
func (p *proc) vmHWMkB() float64 { return procStatusKB(p.pid, "VmHWM:") }

func procStatusKB(pid int, field string) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// cpuSeconds is user+system CPU time of a process, from /proc/<pid>/stat.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name is parenthesised and may hold spaces: fields are
	// counted after the closing parenthesis (state is field 3).
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on every Linux Go supports
}

// tailBuf keeps the last max bytes written to it.
type tailBuf struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.b))
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}
