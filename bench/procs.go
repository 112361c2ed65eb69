package main

// Child-process management: build the two server binaries from this
// checkout, spawn them on free loopback ports, wait until they answer, and
// make sure every one is dead and every data dir gone when the run ends —
// on normal exit, on error and on SIGINT.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the checkout root: the nearest ancestor of the working
// directory holding BENCHMARK.json (go run -C bench . starts us in bench/).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// env is where one benchmark process keeps its files and children.
type env struct {
	root   string // checkout root
	outDir string // bench/out: binaries, logs, data dirs, traces
	bin    string // bench/out/bin

	mu       sync.Mutex
	children []*child
	tmpDirs  []string
	logged   map[string]bool // child names whose log this process has started
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out")}
	e.bin = filepath.Join(e.outDir, "bin")
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// build compiles uncertaind and uncertainrouter into bench/out/bin. The go
// tool skips the link when the binaries are current, so only the first run
// in a checkout pays for it; build time is outside every metric.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/uncertaind", "./cmd/uncertainrouter")
	cmd.Dir = e.root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build of the servers: %w\n%s", err, stderr.String())
	}
	return nil
}

// cleanupOnSignal kills children and removes temp dirs on SIGINT/SIGTERM,
// then exits non-zero. The returned stop function detaches the handler.
func (e *env) cleanupOnSignal() (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			e.cleanup()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

// cleanup kills every child still running and removes every temp dir.
func (e *env) cleanup() {
	e.mu.Lock()
	children, dirs := e.children, e.tmpDirs
	e.children, e.tmpDirs = nil, nil
	e.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// tempDir makes a directory under bench/out that cleanup removes.
func (e *env) tempDir(prefix string) (string, error) {
	d, err := os.MkdirTemp(e.outDir, prefix)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.tmpDirs = append(e.tmpDirs, d)
	e.mu.Unlock()
	return d, nil
}

// child is one spawned server.
type child struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	once sync.Once
	dead chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts one server binary with "-addr 127.0.0.1:<free port>" plus
// args, its stdout and stderr appended to bench/out/<name>.log.
func (e *env) spawn(name, binary string, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	return e.spawnAt(name, binary, port, args...)
}

func (e *env) spawnAt(name, binary string, port int, args ...string) (*child, error) {
	// One log per child name and benchmark process: the first spawn starts it
	// afresh, later ones (set-up repeats, the restarted leader) append.
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	e.mu.Lock()
	if !e.logged[name] {
		flags |= os.O_TRUNC
		if e.logged == nil {
			e.logged = map[string]bool{}
		}
		e.logged[name] = true
	}
	e.mu.Unlock()
	log, err := os.OpenFile(filepath.Join(e.outDir, name+".log"), flags, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(e.bin, binary), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	c := &child{name: name, url: "http://" + addr, cmd: cmd, log: log, dead: make(chan struct{})}
	go func() { cmd.Wait(); close(c.dead) }()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) port() int {
	p, _ := strconv.Atoi(c.url[strings.LastIndexByte(c.url, ':')+1:])
	return p
}

// kill SIGKILLs the child and waits until it has been reaped.
func (c *child) kill() {
	c.once.Do(func() {
		c.cmd.Process.Kill()
		<-c.dead
		c.log.Close()
	})
}

// alive reports whether the process is still running.
func (c *child) alive() bool {
	select {
	case <-c.dead:
		return false
	default:
		return true
	}
}

// waitReady polls GET <url>/v1/tables until it answers 200, the child dies,
// or the deadline passes.
func (c *child) waitReady(ctx context.Context, hc *http.Client) error {
	return poll(ctx, func() (bool, error) {
		if !c.alive() {
			return false, fmt.Errorf("%s exited during start-up (see bench/out/%s.log)", c.name, c.name)
		}
		resp, err := hc.Get(c.url + "/v1/tables")
		if err != nil {
			return false, nil
		}
		drain(resp)
		return resp.StatusCode == http.StatusOK, nil
	})
}

// poll retries f every millisecond until it reports true, fails, or ctx ends.
func poll(ctx context.Context, f func() (bool, error)) error {
	for {
		ok, err := f()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
