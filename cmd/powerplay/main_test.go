package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/web"
)

// TestServeGracefulShutdown proves the server lifecycle: it serves
// traffic, and canceling the context (what SIGINT/SIGTERM do in main)
// drains and exits cleanly — http.ErrServerClosed is not an error.
func TestServeGracefulShutdown(t *testing.T) {
	srv, err := web.NewServer(web.Config{}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv.Handler()) }()

	// The site answers while serving.
	resp, err := http.Get("http://" + ln.Addr().String() + "/api/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live server: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown should be a clean exit, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after context cancellation")
	}
}

func TestSeedDesigns(t *testing.T) {
	srv, err := web.NewServer(web.Config{}, library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := seedDesigns(srv); err != nil || !installed {
		t.Fatalf("seedDesigns = %v, %v", installed, err)
	}
	// Seeding twice must not fail (idempotent demo setup).
	if _, err := seedDesigns(srv); err != nil {
		t.Fatal(err)
	}
	// The macro landed in the registry alongside the designs.
	if _, ok := srv.Registry().Lookup("macro.luminance"); !ok {
		t.Error("luminance macro not registered by seeding")
	}
}

// TestSeedOnNonOwningShard: a -seed backend that does not own user
// demo installs no designs but still registers the InfoPad macro, so a
// user it does own can import an InfoPad copy and evaluate it.
func TestSeedOnNonOwningShard(t *testing.T) {
	var srv *web.Server
	for id := 0; id < 2 && srv == nil; id++ {
		s, err := web.NewServer(web.Config{ShardID: id, ShardCount: 2}, library.Standard())
		if err != nil {
			t.Fatal(err)
		}
		if !s.Owns("demo") {
			srv = s
		}
	}
	if installed, err := seedDesigns(srv); err != nil || installed {
		t.Fatalf("seedDesigns on a non-owning shard = %v, %v; want false, nil", installed, err)
	}
	user := ""
	for i := 0; user == ""; i++ {
		if name := fmt.Sprintf("u%03d", i); srv.Owns(name) {
			user = name
		}
	}
	d, err := infopad.Build(library.Standard())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	jar, _ := cookiejar.New(nil)
	c := &http.Client{Jar: jar}
	for _, step := range []struct {
		path string
		form url.Values
	}{
		{"/login", url.Values{"user": {user}}},
		{"/designs/import", url.Values{"design": {string(blob)}, "name": {"InfoPad_copy"}}},
	} {
		resp, err := c.PostForm(ts.URL+step.path, step.form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d", step.path, resp.StatusCode)
		}
	}
	// The CSV export answers 422 when the sheet fails to evaluate.
	resp, err := c.Get(ts.URL + "/design/InfoPad_copy/csv")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("imported InfoPad on a non-owning shard: %d %s", resp.StatusCode, body)
	}
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	if err := m.Set("a=b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("c=d"); err != nil {
		t.Fatal(err)
	}
	if m.String() != "a=b,c=d" {
		t.Errorf("String = %q", m.String())
	}
	if len(m) != 2 {
		t.Errorf("len = %d", len(m))
	}
}

// TestPprofServerAnswersAtLoggedURL starts the binary with -pprof on
// an ephemeral port and takes the first url= line of its log, as the
// process-level simulators and perfbench do: that URL must be the bound
// address, answering both the health probe and the profiling index.
func TestPprofServerAnswersAtLoggedURL(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "powerplay")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building powerplay: %v\n%s", err, out)
	}
	cmd, base := startFed(t, bin, "-pprof", "-addr", "127.0.0.1:0")
	defer func() { cmd.Process.Kill(); cmd.Wait() }()
	base = strings.TrimSuffix(base, "/debug/pprof/")
	for _, path := range []string{"/api/v1/healthz", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}
