package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"uvmsim/internal/obs"
	"uvmsim/internal/resultio"
)

// ResultDoc is the decoded form of a job result payload.
type ResultDoc struct {
	Version int                  `json:"version"`
	Cells   []resultio.CellEntry `json:"cells"`
	// Colo holds the job's co-location entries, present only when the
	// submission had colo cells.
	Colo []resultio.CXLEntry `json:"colo,omitempty"`
}

// DecodeResult parses and validates a job result payload: the strict
// decode (resultio.DecodeStrict), the version check, and every entry's
// resultio validation rules.
func DecodeResult(payload []byte) (*ResultDoc, error) {
	var doc ResultDoc
	if err := resultio.DecodeStrict(bytes.NewReader(payload), &doc); err != nil {
		return nil, fmt.Errorf("serve: decoding result payload: %w", err)
	}
	if doc.Version != ResultFormatVersion {
		return nil, fmt.Errorf("serve: unsupported result version %d (want %d)", doc.Version, ResultFormatVersion)
	}
	for i := range doc.Cells {
		if err := doc.Cells[i].Validate(); err != nil {
			return nil, fmt.Errorf("serve: result cell %d: %w", i, err)
		}
	}
	for i := range doc.Colo {
		if err := doc.Colo[i].Validate(); err != nil {
			return nil, fmt.Errorf("serve: result colo cell %d: %w", i, err)
		}
	}
	return &doc, nil
}

// Client is a thin HTTP client for a simd server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8642".
	BaseURL string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// decodeError extracts the server's JSON error document.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return fmt.Errorf("serve: server returned %s: %s", resp.Status, doc.Error)
	}
	return fmt.Errorf("serve: server returned %s", resp.Status)
}

func (c *Client) getJSON(path string, out any) error {
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("serve: decoding %s response: %w", path, err)
	}
	return nil
}

// Submit posts a job and returns its initial status.
func (c *Client) Submit(req JobRequest) (JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobStatus{}, fmt.Errorf("serve: encoding job request: %w", err)
	}
	resp, err := c.httpClient().Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return JobStatus{}, decodeError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, fmt.Errorf("serve: decoding job status: %w", err)
	}
	return st, nil
}

// Wait follows the job's progress stream until the terminal status,
// invoking onUpdate (when non-nil) for every snapshot including the
// last. It returns the terminal status. The stream is push-based — the
// server writes a line per state change — so Wait never polls.
func (c *Client) Wait(id string, onUpdate func(JobStatus)) (JobStatus, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/jobs/" + id + "/progress")
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeError(resp)
	}
	// The scanner starts at bufio's 4 KiB and grows only for a longer
	// line, up to 1 MiB.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var last JobStatus
	seen := false
	for sc.Scan() {
		var st JobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return JobStatus{}, fmt.Errorf("serve: decoding progress line: %w", err)
		}
		last, seen = st, true
		if onUpdate != nil {
			onUpdate(st)
		}
		if st.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return JobStatus{}, fmt.Errorf("serve: reading progress stream: %w", err)
	}
	if !seen {
		return JobStatus{}, fmt.Errorf("serve: progress stream ended without any status")
	}
	return last, fmt.Errorf("serve: progress stream ended before job %s finished", id)
}

// MaxResultBytes is the largest job result payload Client.Result
// accepts: 256 MiB, well above what a job of the default MaxCells
// (4096) cells produces.
const MaxResultBytes = 256 << 20

// Result fetches a finished job's raw result payload.
func (c *Client) Result(id string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return readBody(resp.Body, resp.ContentLength, MaxResultBytes)
}

// readBody reads a response body of the given Content-Length (-1 when
// absent) into one allocation of exactly that size. Without a length it
// reads at most limit+1 bytes. A body above limit bytes, or shorter than
// its stated length, is an error.
func readBody(body io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, fmt.Errorf("serve: result of %d bytes exceeds the %d-byte limit", length, limit)
	}
	if length < 0 {
		b, err := io.ReadAll(io.LimitReader(body, limit+1))
		if err != nil {
			return nil, fmt.Errorf("serve: reading result: %w", err)
		}
		if int64(len(b)) > limit {
			return nil, fmt.Errorf("serve: result exceeds the %d-byte limit", limit)
		}
		return b, nil
	}
	b := make([]byte, length)
	if _, err := io.ReadFull(body, b); err != nil {
		return nil, fmt.Errorf("serve: reading result of %d bytes: %w", length, err)
	}
	return b, nil
}

// RunJob submits a job, waits for it to finish, and returns the
// terminal status plus raw result payload.
func (c *Client) RunJob(req JobRequest, onUpdate func(JobStatus)) (JobStatus, []byte, error) {
	st, err := c.Submit(req)
	if err != nil {
		return JobStatus{}, nil, err
	}
	st, err = c.Wait(st.ID, onUpdate)
	if err != nil {
		return st, nil, err
	}
	if st.State != StateDone {
		return st, nil, fmt.Errorf("serve: job %s %s: %s", st.ID, st.State, st.Error)
	}
	payload, err := c.Result(st.ID)
	if err != nil {
		return st, nil, err
	}
	return st, payload, nil
}

// CacheStats fetches the server's cache statistics.
func (c *Client) CacheStats() (CacheStats, error) {
	var cs CacheStats
	err := c.getJSON("/v1/cache", &cs)
	return cs, err
}

// Metrics fetches and validates the server's obs metrics snapshot.
func (c *Client) Metrics() (obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := c.getJSON("/v1/metrics", &snap); err != nil {
		return obs.Snapshot{}, err
	}
	if err := snap.Validate(); err != nil {
		return obs.Snapshot{}, err
	}
	return snap, nil
}
