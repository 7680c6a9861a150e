package faultnet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// upstream is a minimal JSON endpoint standing in for a PowerPlay site.
func upstream() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"answer": 42, "pad": "`+strings.Repeat("x", 200)+`"}`)
	})
}

func get(t *testing.T, url string) (*http.Response, error) {
	t.Helper()
	c := &http.Client{Timeout: 5 * time.Second}
	return c.Get(url)
}

func decode(t *testing.T, resp *http.Response) (map[string]any, error) {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	err := json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

func TestPassAndExhaustedScheduleDefaultsToPass(t *testing.T) {
	p := New(upstream(), Fault{Mode: Pass})
	defer p.Close()
	for i := 0; i < 3; i++ { // 1 scripted + 2 beyond the schedule
		resp, err := get(t, p.URL())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		out, err := decode(t, resp)
		if err != nil || out["answer"] != 42.0 {
			t.Fatalf("request %d: out=%v err=%v", i, out, err)
		}
	}
	if p.Requests() != 3 {
		t.Errorf("requests = %d, want 3", p.Requests())
	}
	if rem := len(p.schedule) - p.pos; rem != 0 {
		t.Errorf("remaining = %d, want 0", rem)
	}
}

func TestStatusBurst(t *testing.T) {
	burst := Fault{Mode: Status, Code: 500}
	p := New(upstream(), burst, burst, Fault{Mode: Pass})
	defer p.Close()
	for i, want := range []int{500, 500, 200} {
		resp, err := get(t, p.URL())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("request %d: status %d, want %d", i, resp.StatusCode, want)
		}
	}
}

func TestReset(t *testing.T) {
	p := New(upstream(), Fault{Mode: Reset})
	defer p.Close()
	if _, err := get(t, p.URL()); err == nil {
		t.Fatal("reset request should fail at the connection level")
	}
	// The proxy is intact afterwards.
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatalf("after reset: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("after reset: %d", resp.StatusCode)
	}
}

func TestTruncate(t *testing.T) {
	p := New(upstream(), Fault{Mode: Truncate, Bytes: 10})
	defer p.Close()
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	_, err = decode(t, resp)
	if err == nil {
		t.Fatal("truncated body should fail to decode")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !strings.Contains(err.Error(), "EOF") {
		t.Errorf("want unexpected EOF, got %v", err)
	}
}

func TestGarbage(t *testing.T) {
	p := New(upstream(), Fault{Mode: Garbage})
	defer p.Close()
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("garbage should be 200, got %d", resp.StatusCode)
	}
	if _, err := decode(t, resp); err == nil {
		t.Fatal("garbage body should fail to decode")
	}
}

func TestSlowDripDeliversAndHonorsCancel(t *testing.T) {
	p := New(upstream(),
		Fault{Mode: SlowDrip, Drip: time.Millisecond, Chunk: 64},
		Fault{Mode: SlowDrip, Drip: 50 * time.Millisecond, Chunk: 1})
	defer p.Close()

	// Patient client: the full body arrives, just slowly.
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	out, err := decode(t, resp)
	if err != nil || out["answer"] != 42.0 {
		t.Fatalf("slow drip should deliver: out=%v err=%v", out, err)
	}

	// Impatient client: cancellation releases the handler promptly
	// (Close would hang past the test deadline if it did not).
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.URL(), nil)
	resp, err = http.DefaultClient.Do(req)
	if err == nil {
		if _, err = io.ReadAll(resp.Body); err == nil {
			t.Fatal("canceled slow drip should not complete")
		}
		resp.Body.Close()
	}
}

func TestLatency(t *testing.T) {
	p := New(upstream(), Fault{Mode: Pass, Latency: 80 * time.Millisecond})
	defer p.Close()
	start := time.Now()
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Errorf("latency not applied: %v", d)
	}
}

func TestSetDefaultKillsRemote(t *testing.T) {
	p := New(upstream(), Fault{Mode: Pass})
	defer p.Close()
	resp, err := get(t, p.URL())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p.SetDefault(Fault{Mode: Reset})
	for i := 0; i < 2; i++ {
		if _, err := get(t, p.URL()); err == nil {
			t.Fatalf("request %d after death should fail", i)
		}
	}
}
