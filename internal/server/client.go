package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro"
)

// Client talks to a running solve server. It is the one NDJSON decoder in
// the tree: the load generator, the repository benchmark and the tests all consume
// streams through it.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Outcome is one job's end-to-end result as seen from the client side.
type Outcome struct {
	// Rejected reports a 503 from admission control; RetryAfter carries the
	// server's backoff hint and every other field is zero.
	Rejected   bool
	RetryAfter time.Duration
	// JobID is the server-assigned id (accepted jobs).
	JobID string
	// Report is the terminal report (nil when the job ended in error).
	Report *repro.Report
	// Describe is the scenario's quality line for the final iterate.
	Describe string
	// JobErr is the terminal error event's message, "" on success.
	JobErr string
	// Progress counts progress events observed before the terminal event.
	Progress int
	// Latency is the client-observed accept-to-terminal duration.
	Latency time.Duration
}

// Solve submits req and consumes the whole NDJSON stream. A transport or
// protocol failure returns err != nil; a well-formed stream whose job
// failed returns (Outcome with JobErr set, nil). A 503 rejection returns
// (Outcome with Rejected set, nil) — admission refusal is an expected
// answer under load, not an error.
func (c *Client) Solve(ctx context.Context, req JobRequest) (*Outcome, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	begin := time.Now()
	resp, err := c.http().Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		out := &Outcome{Rejected: true}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			out.RetryAfter = time.Duration(ra) * time.Second
		}
		io.Copy(io.Discard, resp.Body)
		return out, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("server: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}

	out := &Outcome{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	terminal := false
	for !terminal && sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("server: bad event line %q: %v", line, err)
		}
		if ev.JobID != "" {
			out.JobID = ev.JobID
		}
		switch ev.Type {
		case EventProgress:
			out.Progress++
		case EventReport:
			out.Report = ev.Report
			out.Describe = ev.Describe
			terminal = true
		case EventError:
			out.JobErr = ev.Error
			terminal = true
		}
	}
	if terminal {
		out.Latency = time.Since(begin)
		// The terminal line is the last one, but the transport only keeps
		// the connection for the next job once the body has been read to
		// EOF. Read the few bytes of framing still due — bounded, so a
		// server that keeps talking costs a connection, not a hang.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return out, nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("server: stream: %w", err)
	}
	return nil, fmt.Errorf("server: stream ended without a terminal event")
}

// Scenarios fetches the GET /v1/scenarios listing.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/scenarios", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: scenarios: %s", resp.Status)
	}
	var out []ScenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health fetches GET /healthz (the body decodes on both 200 and the 503
// the server answers with while draining).
func (c *Client) Health(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}
