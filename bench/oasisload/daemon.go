package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves outside its own memory: the
// daemons it started and the scratch directories under bench/out. Its
// cleanup runs on every exit path — normal return, failed check, panic
// and SIGINT/SIGTERM — because a daemon that survives a run answers
// the next run's requests from stale state.
type harness struct {
	root   string // the repository checkout (holds cmd/oasisd)
	outDir string // bench/out
	oasisd string // the built daemon binary

	mu      sync.Mutex
	daemons []*daemon
	tmpDirs []string
}

// findRoot walks up from the working directory to the checkout that
// holds cmd/oasisd, so the tool runs the same from the repository
// root, from bench/ (go -C bench run) and from a test's package
// directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "oasisd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/oasisd above the working directory: run from inside the repository checkout")
		}
		dir = parent
	}
}

// newHarness locates the checkout and builds cmd/oasisd from it into
// bench/out/bin. The build is outside every timed interval.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, outDir: filepath.Join(root, "bench", "out")}
	binDir := filepath.Join(h.outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	h.oasisd = filepath.Join(binDir, "oasisd")
	cmd := exec.Command("go", "build", "-o", h.oasisd, "./cmd/oasisd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cmd/oasisd: %v\n%s", err, out)
	}
	return h, nil
}

// tmpDir creates a scratch directory bench/out/tmp-<label>-* that
// cleanup removes.
func (h *harness) tmpDir(label string) (string, error) {
	dir, err := os.MkdirTemp(h.outDir, "tmp-"+label+"-")
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.tmpDirs = append(h.tmpDirs, dir)
	h.mu.Unlock()
	return dir, nil
}

// cleanup kills every daemon still running and removes the scratch
// directories. It is idempotent.
func (h *harness) cleanup() {
	h.mu.Lock()
	daemons, dirs := h.daemons, h.tmpDirs
	h.daemons, h.tmpDirs = nil, nil
	h.mu.Unlock()
	for _, d := range daemons {
		d.kill()
	}
	for _, dir := range dirs {
		_ = os.RemoveAll(dir)
	}
}

// stop kills the given daemons and forgets them.
func (h *harness) stop(ds ...*daemon) {
	for _, d := range ds {
		d.kill()
	}
	h.mu.Lock()
	kept := h.daemons[:0]
	for _, d := range h.daemons {
		dead := false
		for _, k := range ds {
			dead = dead || d == k
		}
		if !dead {
			kept = append(kept, d)
		}
	}
	h.daemons = kept
	h.mu.Unlock()
}

// daemon is one running oasisd.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	pid      int
	httpAddr string // federation gateway
	peerAddr string // inter-service protocol; empty without -peer-listen
	startMS  float64

	logMu   sync.Mutex
	logTail []string
	logDone chan struct{}
	once    sync.Once
}

var (
	peerLine    = regexp.MustCompile(`inter-service protocol on (\S+)`)
	gatewayLine = regexp.MustCompile(`federation gateway on (\S+)`)
	// The client-port line is the last thing run() logs before serving,
	// so every listener is up once it appears.
	readyLine = regexp.MustCompile(`serving rolefile "[^"]*" on \S+`)
)

// daemonStartTimeout bounds exec → listening.
const daemonStartTimeout = 20 * time.Second

// start execs oasisd with the given flags plus the ones every
// benchmark daemon shares: ephemeral ports and the rate limiter off
// (it is a guard rail, not the request path; gateway.shed_share shows
// it stayed out). It returns once the daemon logs that it is serving,
// with the addresses parsed from its log lines.
func (h *harness) start(name string, args ...string) (*daemon, error) {
	full := append([]string{
		"-name", name,
		"-listen", "127.0.0.1:0",
		"-http-listen", "127.0.0.1:0",
		"-http-rate", "0",
	}, args...)
	cmd := exec.Command(h.oasisd, full...)
	// Own process group, so one signal reaches the daemon and anything
	// it might spawn; Pdeathsig covers the generator being SIGKILLed,
	// the one exit path cleanup cannot run on.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, logDone: make(chan struct{})}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting oasisd %s: %w", name, err)
	}
	d.pid = cmd.Process.Pid
	h.mu.Lock()
	h.daemons = append(h.daemons, d)
	h.mu.Unlock()

	ready := make(chan struct{})
	go d.readLog(stderr, ready)
	select {
	case <-ready:
		d.startMS = float64(time.Since(began)) / float64(time.Millisecond)
	case <-d.logDone:
		h.stop(d)
		return nil, fmt.Errorf("oasisd %s exited before serving:\n%s", name, d.tail())
	case <-time.After(daemonStartTimeout):
		h.stop(d)
		return nil, fmt.Errorf("oasisd %s not serving after %v:\n%s", name, daemonStartTimeout, d.tail())
	}
	if d.httpAddr == "" {
		h.stop(d)
		return nil, fmt.Errorf("oasisd %s logged no gateway address:\n%s", name, d.tail())
	}
	return d, nil
}

// readLog drains the daemon's log for its whole life (a full pipe
// would block the daemon), picks the listen addresses out of it, and
// keeps the last lines for error reports.
func (d *daemon) readLog(r io.Reader, ready chan<- struct{}) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		d.logTail = append(d.logTail, line)
		if len(d.logTail) > 20 {
			d.logTail = d.logTail[1:]
		}
		d.logMu.Unlock()
		if signalled {
			continue
		}
		if m := peerLine.FindStringSubmatch(line); m != nil {
			d.peerAddr = m[1]
		}
		if m := gatewayLine.FindStringSubmatch(line); m != nil {
			d.httpAddr = m[1]
		}
		if readyLine.MatchString(line) {
			signalled = true
			close(ready)
		}
	}
}

func (d *daemon) tail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logTail, "\n")
}

// kill SIGKILLs the daemon's process group and reaps it. SIGKILL, not
// SIGTERM: oasisd installs no signal handler, and the durable
// workload's restart check wants exactly the crash a kill -9 is.
func (d *daemon) kill() {
	d.once.Do(func() {
		_ = syscall.Kill(-d.pid, syscall.SIGKILL)
		<-d.logDone
		_ = d.cmd.Wait()
	})
}
