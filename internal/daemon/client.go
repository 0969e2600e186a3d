package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// Client is the retry-aware HTTP client for a propcfdd instance, used by
// `propcfd -server` and the integration smoke. It retries exactly the
// answers the degradation contract marks retryable — 429 (shed) and 503
// (draining / evicted mid-request) — honoring Retry-After when present and
// backing off with decorrelated jitter otherwise. Everything else,
// including 500 from an isolated panic, returns immediately: a
// deterministic computation that panicked once will panic again.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:7419".
	Base string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retryable re-attempts (default 4; total tries =
	// MaxRetries + 1).
	MaxRetries int
	// Backoff seeds the retry delay (default 100ms). Waits are drawn with
	// decorrelated jitter — uniform in [Backoff, 3×previous wait], capped
	// at 30×Backoff — so a fleet of clients shed at the same instant
	// spreads its retries out instead of re-arriving in lockstep, while
	// the expected wait still grows geometrically. A Retry-After header
	// overrides the draw (and reseeds the growth from the server's hint).
	Backoff time.Duration
}

// StatusError is a non-2xx daemon answer.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("daemon: %d: %s", e.Code, e.Message)
}

// Retryable reports whether the answer is part of the shed/drain contract.
func (e *StatusError) Retryable() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// Check runs a /v1/check request.
func (c *Client) Check(ctx context.Context, req *CheckRequest) (*CheckResponse, error) {
	var resp CheckResponse
	if err := c.do(ctx, http.MethodPost, "/v1/check", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Cover runs a /v1/cover request.
func (c *Client) Cover(ctx context.Context, req *CoverRequest) (*CoverResponse, error) {
	var resp CoverResponse
	if err := c.do(ctx, http.MethodPost, "/v1/cover", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Implies runs a /v1/implies request.
func (c *Client) Implies(ctx context.Context, req *ImpliesRequest) (*ImpliesResponse, error) {
	var resp ImpliesResponse
	if err := c.do(ctx, http.MethodPost, "/v1/implies", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Register runs a POST /v1/universe request.
func (c *Client) Register(ctx context.Context, req *UniverseRequest) (*UniverseResponse, error) {
	var resp UniverseResponse
	if err := c.do(ctx, http.MethodPost, "/v1/universe", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PutSigma runs a PUT /v1/universe/{fp}/sigma request.
func (c *Client) PutSigma(ctx context.Context, fp string, req *SigmaRequest) (*SigmaPatchResponse, error) {
	var resp SigmaPatchResponse
	if err := c.do(ctx, http.MethodPut, "/v1/universe/"+fp+"/sigma", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// PatchSigma runs a PATCH /v1/universe/{fp}/sigma request — the delta form
// of PutSigma.
func (c *Client) PatchSigma(ctx context.Context, fp string, req *SigmaPatchRequest) (*SigmaPatchResponse, error) {
	var resp SigmaPatchResponse
	if err := c.do(ctx, http.MethodPatch, "/v1/universe/"+fp+"/sigma", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready polls /readyz once.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	retries := c.MaxRetries
	if retries <= 0 {
		retries = 4
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}

	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}

	var lastErr error
	var prev time.Duration // last wait, seeds the next jitter draw
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}

		serverHint := time.Duration(0)
		resp, err := httpc.Do(req)
		if err != nil {
			// Connection-level failure: the daemon may still be starting or
			// mid-restart; retryable within the same budget.
			lastErr = err
		} else {
			data, readErr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if readErr != nil {
				return readErr
			}
			if resp.StatusCode/100 == 2 {
				if out == nil {
					return nil
				}
				return json.Unmarshal(data, out)
			}
			serr := &StatusError{Code: resp.StatusCode, Message: string(bytes.TrimSpace(data))}
			var er ErrorResponse
			if json.Unmarshal(data, &er) == nil && er.Error != "" {
				serr.Message = er.Error
			}
			if !serr.Retryable() {
				return serr
			}
			lastErr = serr
			serverHint = retryAfter(resp.Header)
		}

		if attempt >= retries {
			return fmt.Errorf("daemon: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		delay := nextDelay(backoff, prev)
		if serverHint > 0 {
			delay = serverHint
		}
		prev = delay
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// nextDelay draws one decorrelated-jitter wait: uniform in
// [base, 3×prev], capped at 30×base. The first retry (prev = 0) waits
// exactly base; each subsequent draw can triple, so the expected wait
// grows geometrically while the randomness decorrelates a fleet of
// clients that were all shed at the same instant.
func nextDelay(base, prev time.Duration) time.Duration {
	hi := 3 * prev
	if hi <= base {
		return base
	}
	maxDelay := 30 * base
	d := base + rand.N(hi-base+1)
	if d > maxDelay {
		d = maxDelay
	}
	return d
}

// retryAfter parses the delay-seconds form of Retry-After (the only form
// the daemon emits).
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}
