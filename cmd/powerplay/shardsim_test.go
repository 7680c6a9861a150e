package main

// The shard fleet simulator: build the real binary, run one router in
// front of two shard-aware backends, and kill -9 / restart one backend
// repeatedly under live traffic — asserting each round that the router
// opens the dead backend's breaker (its users get fast 503s, the
// surviving shard keeps serving), and that the restarted backend
// rejoins serving its partition byte-for-byte.
//
// Process-level and slow, so gated: POWERPLAY_SHARDSIM=1 go test
// -run TestShardSim ./cmd/powerplay/ (or `make shardsim`).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"powerplay/internal/shard"
)

const shardRounds = 3

func TestShardSim(t *testing.T) {
	if os.Getenv("POWERPLAY_SHARDSIM") == "" {
		t.Skip("set POWERPLAY_SHARDSIM=1 to run the shard fleet kill/restart simulator")
	}
	bin := filepath.Join(t.TempDir(), "powerplay")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building powerplay: %v\n%s", err, out)
	}
	dir0, dir1 := t.TempDir(), t.TempDir()

	// Users pinned to each shard by the same hash the fleet uses.
	var u0, u1 string
	for i := 0; u0 == "" || u1 == ""; i++ {
		name := fmt.Sprintf("simuser%d", i)
		switch shard.NewRing(shard.Members(2)).Pick(name) {
		case 0:
			if u0 == "" {
				u0 = name
			}
		case 1:
			if u1 == "" {
				u1 = name
			}
		}
	}

	b0, base0 := startShardProc(t, bin, "-addr", "127.0.0.1:0", "-data", dir0,
		"-durability", "always", "-shard-id", "0", "-shard-count", "2")
	defer func() { b0.Process.Signal(syscall.SIGKILL); b0.Wait() }()
	b1, base1 := startShardProc(t, bin, "-addr", "127.0.0.1:0", "-data", dir1,
		"-durability", "always", "-shard-id", "1", "-shard-count", "2")
	addr1 := strings.TrimPrefix(base1, "http://")

	router, front := startShardProc(t, bin, "-mode", "router", "-addr", "127.0.0.1:0",
		"-backends", strings.TrimPrefix(base0, "http://")+","+addr1,
		"-breaker-cooldown", "300ms")
	defer func() { router.Process.Signal(syscall.SIGKILL); router.Wait() }()

	// Seed state on the doomed shard: u1's design, whose page must come
	// back byte-identical after every crash.
	c1 := shardLogin(t, front, u1)
	if resp, err := c1.PostForm(front+"/designs", url.Values{"name": {"boom"}}); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	wantBody, wantETag := fetchPage(t, c1, front+"/design/boom")

	c0 := shardLogin(t, front, u0)

	for round := 0; round < shardRounds; round++ {
		// Live traffic through the router while the kill lands: both
		// shards' users, so the dead backend's breaker sees failures
		// while the surviving shard proves it is unperturbed.
		// (http.Client is safe to share with the checks below.)
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ctx.Err() == nil {
				for _, h := range []*http.Client{c0, c1} {
					resp, err := h.Get(front + "/menu")
					if err != nil {
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
		if err := b1.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		b1.Wait()

		// The dead shard's users get 503s once the breaker opens; the
		// router healthz reports it.
		waitBreaker(t, front, 1, "open", 10*time.Second)
		resp, err := c1.Get(front + "/menu")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "unavailable") {
			t.Fatalf("round %d: dead shard answered %d: %s", round, resp.StatusCode, body)
		}
		// The surviving shard serves unperturbed.
		if code := getCode(t, c0, front+"/menu"); code != 200 {
			t.Fatalf("round %d: surviving shard: %d", round, code)
		}
		stop()
		<-done

		// Restart on the same address; the breaker half-opens after the
		// cooldown and the shard rejoins.
		b1, _ = startShardProc(t, bin, "-addr", addr1, "-data", dir1,
			"-durability", "always", "-shard-id", "1", "-shard-count", "2")
		c1 = shardLogin(t, front, u1) // sessions died with the process
		waitBreaker(t, front, 1, "closed", 10*time.Second)
		gotBody, gotETag := fetchPage(t, c1, front+"/design/boom")
		if gotETag != wantETag {
			t.Fatalf("round %d: rejoined ETag %q, want %q", round, gotETag, wantETag)
		}
		if gotBody != wantBody {
			t.Fatalf("round %d: rejoined page differs (%d vs %d bytes)",
				round, len(gotBody), len(wantBody))
		}
	}
	b1.Process.Signal(syscall.SIGKILL)
	b1.Wait()
}

// startShardProc launches the binary with args, waits for its
// listening log line, and returns the process plus base URL.
func startShardProc(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlRe := regexp.MustCompile(`url=(http://\S+)`)
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := urlRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case lines <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case base := <-lines:
		return cmd, strings.TrimSuffix(base, `"`)
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("process %v never logged its listening URL", args)
		return nil, ""
	}
}

// shardLogin retries the login until the owning backend answers —
// tolerant of a backend that is mid-restart.
func shardLogin(t *testing.T, front, user string) *http.Client {
	t.Helper()
	jar, _ := cookiejar.New(nil)
	c := &http.Client{Jar: jar}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := c.PostForm(front+"/login", url.Values{"user": {user}})
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("login %s never succeeded", user)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fetchPage(t *testing.T, c *http.Client, url string) (string, string) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(raw), resp.Header.Get("ETag")
}

func getCode(t *testing.T, c *http.Client, url string) int {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// waitBreaker polls the router healthz until backend idx's breaker
// reaches want.
func waitBreaker(t *testing.T, front string, idx int, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(front + "/api/v1/healthz")
		if err == nil {
			var h struct {
				Backends []struct {
					Breaker string `json:"breaker"`
				} `json:"backends"`
			}
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if len(h.Backends) > idx {
				last = h.Backends[idx].Breaker
				if last == want {
					return
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("backend %d breaker never reached %q (last %q)", idx, want, last)
}
