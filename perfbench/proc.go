package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running cmd/powerplay process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	args []string
	done chan struct{} // closed once the process has been waited for
	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var listenURL = regexp.MustCompile(`url=(http://[0-9.]+:[0-9]+)`)

// bootTimeout bounds how long a process may take to print its listen
// address and answer /api/v1/healthz.
const bootTimeout = 30 * time.Second

// startServer launches the binary on an ephemeral loopback port and
// waits until it answers its health probe.
func startServer(bin string, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	// The server dies with the benchmark, even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, args: args, done: make(chan struct{})}
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 8 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if m := listenURL.FindStringSubmatch(line); m != nil && !sent {
				urls <- m[1]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case s.base = <-urls:
	case <-s.done:
		return nil, fmt.Errorf("server %v exited during boot: %s", args, s.lastLines())
	case <-time.After(bootTimeout):
		s.kill()
		return nil, fmt.Errorf("server %v printed no listen address within %s", args, bootTimeout)
	}
	if err := waitHealthy(s.base); err != nil {
		s.kill()
		return nil, fmt.Errorf("server %v: %w: %s", args, err, s.lastLines())
	}
	return s, nil
}

func (s *server) lastLines() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

func waitHealthy(base string) error {
	deadline := time.Now().Add(bootTimeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("health probe never answered 200")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill sends SIGKILL (kill -9) and waits for the process to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the process's user plus system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are fixed.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// recoveryMs reads the boot replay duration from the health probe.
func recoveryMs(base string) (float64, error) {
	resp, err := http.Get(base + "/api/v1/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Durability *struct {
			LastRecovery *struct {
				DurationMs float64 `json:"duration_ms"`
			} `json:"last_recovery"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("decoding healthz: %w", err)
	}
	if h.Durability == nil || h.Durability.LastRecovery == nil {
		return 0, errors.New("healthz has no durability.last_recovery block")
	}
	return h.Durability.LastRecovery.DurationMs, nil
}
