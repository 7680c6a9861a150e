package web

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"powerplay/internal/library"
)

// doAPI issues one request with optional headers and returns the
// response plus the full body.
func doAPI(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	return resp, blob
}

// TestV1RoutesAndLegacyAliases: every versioned endpoint answers under
// /api/v1, and the bare /api alias it replaced — removed after its
// announced Sunset (Mon, 01 Jun 2026) — gets the mux's plain 404, the
// same answer as any other unknown path.
func TestV1RoutesAndLegacyAliases(t *testing.T) {
	_, ts, _ := site(t, Config{})
	evalBody := `{"model":"` + library.SRAM + `","params":{"words":4096,"bits":6,"vdd":1.5,"f":2e6}}`
	cases := []struct {
		name   string
		method string
		v1     string
		legacy string
		body   string
	}{
		{"models", "GET", "/api/v1/models", "/api/models", ""},
		{"model-info", "GET", "/api/v1/models/" + library.SRAM, "/api/models/" + library.SRAM, ""},
		{"eval", "POST", "/api/v1/eval", "/api/eval", evalBody},
		{"equations", "GET", "/api/v1/equations", "/api/equations", ""},
	}
	_, unknownBody := doAPI(t, "GET", ts.URL+"/api/no-such-path", "", nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v1Resp, _ := doAPI(t, tc.method, ts.URL+tc.v1, tc.body, nil)
			oldResp, oldBody := doAPI(t, tc.method, ts.URL+tc.legacy, tc.body, nil)
			if v1Resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d", tc.v1, v1Resp.StatusCode)
			}
			if got := v1Resp.Header.Get("Deprecation"); got != "" {
				t.Errorf("v1 route marked deprecated: %q", got)
			}
			if oldResp.StatusCode != http.StatusNotFound {
				t.Errorf("removed alias %s = %d, want 404", tc.legacy, oldResp.StatusCode)
			}
			if string(oldBody) != string(unknownBody) {
				t.Errorf("removed alias body %q, want the unknown-path body %q", oldBody, unknownBody)
			}
			for _, h := range []string{"Deprecation", "Sunset", "Link"} {
				if got := oldResp.Header.Get(h); got != "" {
					t.Errorf("removed alias still sends %s: %q", h, got)
				}
			}
		})
	}
}

// TestErrorEnvelope: every API error path answers with the uniform
// {"error":{code,message,request_id}} envelope, with the request_id
// matching the X-Request-ID response header.
func TestErrorEnvelope(t *testing.T) {
	_, ts, _ := site(t, Config{})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"unknown-model-info", "GET", "/api/v1/models/ghost", "", 404, "not_found"},
		{"bad-json", "POST", "/api/v1/eval", "not json", 400, "bad_request"},
		{"unknown-model-eval", "POST", "/api/v1/eval", `{"model":"ghost"}`, 422, "invalid_params"},
		{"bad-params", "POST", "/api/v1/eval",
			`{"model":"` + library.SRAM + `","params":{"words":-5}}`, 422, "invalid_params"},
		// The -legacy cases once went through the removed /api aliases;
		// they now cover what such clients still send to /api/v1: the
		// model the deleted pre-journal migration created, and no body.
		{"unknown-model-info-legacy", "GET", "/api/v1/models/user.legacy", "", 404, "not_found"},
		{"bad-json-legacy", "POST", "/api/v1/eval", "", 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, blob := doAPI(t, tc.method, ts.URL+tc.path, tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, blob)
			}
			var env errorEnvelope
			if err := json.Unmarshal(blob, &env); err != nil {
				t.Fatalf("not an error envelope: %v: %s", err, blob)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
			if env.Error.RequestID == "" {
				t.Error("missing request_id in envelope")
			}
			if hdr := resp.Header.Get("X-Request-ID"); hdr != env.Error.RequestID {
				t.Errorf("envelope request_id %q != header %q", env.Error.RequestID, hdr)
			}
		})
	}
}

// TestUnauthorizedEnvelope: a password-restricted site rejects keyless
// API calls with the envelope, accepts the right key, and still serves
// the unauthenticated probes.
func TestUnauthorizedEnvelope(t *testing.T) {
	_, ts, _ := site(t, Config{Password: "sekrit"})
	resp, blob := doAPI(t, "GET", ts.URL+"/api/v1/models", "", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless: %d", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.Unmarshal(blob, &env); err != nil || env.Error.Code != "unauthorized" {
		t.Fatalf("want unauthorized envelope, got %s", blob)
	}
	resp, _ = doAPI(t, "GET", ts.URL+"/api/v1/models", "", map[string]string{"X-PowerPlay-Key": "sekrit"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("keyed: %d", resp.StatusCode)
	}
	for _, probe := range []string{"/api/v1/healthz", "/metrics"} {
		if resp, _ := doAPI(t, "GET", ts.URL+probe, "", nil); resp.StatusCode != http.StatusOK {
			t.Errorf("probe %s on restricted site: %d", probe, resp.StatusCode)
		}
	}
}

// TestRequestIDEcho: every response carries X-Request-ID; a sane
// client-supplied ID is kept, a hostile or oversized one is replaced.
func TestRequestIDEcho(t *testing.T) {
	_, ts, _ := site(t, Config{})
	cases := []struct {
		name     string
		supplied string
		keep     bool
	}{
		{"minted", "", false},
		{"client-supplied", "trace-abc_123.7", true},
		{"hostile-bytes", "bad id!{}", false},
		{"oversized", strings.Repeat("x", 65), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hdr := map[string]string{}
			if tc.supplied != "" {
				hdr["X-Request-ID"] = tc.supplied
			}
			resp, _ := doAPI(t, "GET", ts.URL+"/api/v1/healthz", "", hdr)
			got := resp.Header.Get("X-Request-ID")
			if got == "" {
				t.Fatal("no X-Request-ID on response")
			}
			if tc.keep && got != tc.supplied {
				t.Errorf("supplied ID %q replaced by %q", tc.supplied, got)
			}
			if !tc.keep && got == tc.supplied {
				t.Errorf("unsafe ID %q echoed verbatim", tc.supplied)
			}
		})
	}
}

// TestHealthz: liveness plus the operator summary.
func TestHealthz(t *testing.T) {
	_, ts, _ := site(t, Config{})
	resp, blob := doAPI(t, "GET", ts.URL+"/api/v1/healthz", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.Unmarshal(blob, &h); err != nil {
		t.Fatalf("healthz body: %v: %s", err, blob)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", h.UptimeSeconds)
	}
	if h.Models < 20 {
		t.Errorf("models = %d, want the standard library", h.Models)
	}
	if len(h.Remotes) != 0 {
		t.Errorf("unexpected remotes: %+v", h.Remotes)
	}
}

// TestHealthzReportsMountedRemote: mounting a publisher surfaces one
// deduplicated remote entry with its breaker state.
func TestHealthzReportsMountedRemote(t *testing.T) {
	_, tsEast, _ := site(t, Config{SiteName: "East"})
	west, tsWest, _ := site(t, Config{SiteName: "West"})
	if _, err := Mount(west.Registry(), &Remote{BaseURL: tsEast.URL}, "east"); err != nil {
		t.Fatal(err)
	}
	_, blob := doAPI(t, "GET", tsWest.URL+"/api/v1/healthz", "", nil)
	var h healthResponse
	if err := json.Unmarshal(blob, &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Remotes) != 1 {
		t.Fatalf("remotes = %+v, want exactly one", h.Remotes)
	}
	r := h.Remotes[0]
	if r.BaseURL != tsEast.URL || r.Breaker != "closed" || r.Models < 20 {
		t.Errorf("remote summary = %+v", r)
	}
}
