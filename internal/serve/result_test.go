package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// spliceReference is the result assembly frameResult replaced: every
// entry spliced into one growing buffer. It stays as the reference the
// framed parts must reproduce byte for byte.
func spliceReference(cells, colos [][]byte) []byte {
	splice := func(buf *bytes.Buffer, ps [][]byte) {
		for i, p := range ps {
			if i > 0 {
				buf.WriteString(",\n")
			}
			buf.Write(bytes.TrimRight(p, "\n"))
		}
	}
	var buf bytes.Buffer
	buf.WriteString("{\n  \"version\": ")
	fmt.Fprintf(&buf, "%d", ResultFormatVersion)
	if len(cells) == 0 {
		buf.WriteString(",\n  \"cells\": []")
	} else {
		buf.WriteString(",\n  \"cells\": [\n")
		splice(&buf, cells)
		buf.WriteString("\n  ]")
	}
	if len(colos) > 0 {
		buf.WriteString(",\n  \"colo\": [\n")
		splice(&buf, colos)
		buf.WriteString("\n  ]")
	}
	buf.WriteString("\n}\n")
	return buf.Bytes()
}

// fetchResult GETs a job's result and returns the body and the
// Content-Length the server sent.
func fetchResult(t *testing.T, c *Client, id string) ([]byte, int64) {
	t.Helper()
	resp, err := c.HTTPClient.Get(c.BaseURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.ContentLength
}

// jobParts returns a finished job's result parts.
func jobParts(t *testing.T, s *Server, id string) [][]byte {
	t.Helper()
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	parts, done := j.result()
	if !done {
		t.Fatalf("job %s not done", id)
	}
	return parts
}

// A framed result must be the old spliced payload byte for byte, and
// the result endpoint must send exactly its length as Content-Length.
// Synthetic entries cover zero cells and entries with and without
// trailing newlines; real jobs cover cells only, colo only and both.
func TestResultFramingMatchesSplice(t *testing.T) {
	entry := func(i int, tail string) []byte {
		return []byte(fmt.Sprintf("{\n  \"entry\": %d\n}%s", i, tail))
	}
	tails := []string{"\n", "", "\n\n"}
	for _, shape := range [][2]int{{0, 0}, {1, 0}, {3, 0}, {0, 1}, {0, 2}, {2, 3}} {
		var cells, colos [][]byte
		for i := 0; i < shape[0]; i++ {
			cells = append(cells, entry(i, tails[i%len(tails)]))
		}
		for i := 0; i < shape[1]; i++ {
			colos = append(colos, entry(100+i, tails[i%len(tails)]))
		}
		got := bytes.Join(frameResult(append(append([][]byte{}, cells...), colos...), len(cells)), nil)
		if want := spliceReference(cells, colos); !bytes.Equal(got, want) {
			t.Fatalf("%d cells, %d colo: framed\n%s\nwant\n%s", shape[0], shape[1], got, want)
		}
	}

	s, c := newTestServer(t, Options{Workers: 2})
	both := smallJob("both")
	both.Colo = smallColoJob("").Colo[:1]
	for _, tc := range []struct {
		name string
		req  JobRequest
	}{
		{"cells", smallJob("cells")},
		{"colo", smallColoJob("colo")},
		{"both", both},
	} {
		name := tc.name
		st, payload, err := c.RunJob(tc.req, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		doc, err := DecodeResult(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stored := func(key string) []byte {
			p, ok := s.cache.Get(key)
			if !ok {
				t.Fatalf("%s: entry %s not cached", name, key)
			}
			return p
		}
		var cells, colos [][]byte
		for _, e := range doc.Cells {
			cells = append(cells, stored(e.Key))
		}
		for _, e := range doc.Colo {
			colos = append(colos, stored(e.Key))
		}
		want := spliceReference(cells, colos)
		if !bytes.Equal(payload, want) {
			t.Fatalf("%s: payload differs from the spliced reference", name)
		}
		parts := jobParts(t, s, st.ID)
		if joined := bytes.Join(parts, nil); !bytes.Equal(joined, want) {
			t.Fatalf("%s: joined parts differ from the spliced reference", name)
		}
		body, length := fetchResult(t, c, st.ID)
		if length != int64(len(want)) || !bytes.Equal(body, want) {
			t.Fatalf("%s: Content-Length %d and a %d-byte body, want %d", name, length, len(body), len(want))
		}
	}
}

// A job's cell parts are the cache's stored entries, not copies: each
// starts at the same address as the entry it frames, both for a cold
// job (Put hands back the slice it stored) and for an all-hit warm job.
func TestWarmJobAliasesCache(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})
	job := smallJob("alias")
	job.Policies = []string{"disabled", "adaptive"}
	job.Colo = smallColoJob("").Colo
	cold, _, err := c.RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, payload, err := c.RunJob(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.TotalCells {
		t.Fatalf("warm job: %d/%d cache hits, want all", warm.CacheHits, warm.TotalCells)
	}
	doc, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range doc.Cells {
		keys = append(keys, e.Key)
	}
	for _, e := range doc.Colo {
		keys = append(keys, e.Key)
	}
	for _, st := range []JobStatus{cold, warm} {
		starts := map[*byte]bool{}
		for _, p := range jobParts(t, s, st.ID) {
			starts[unsafe.SliceData(p)] = true
		}
		for _, key := range keys {
			p, ok := s.cache.Get(key)
			if !ok {
				t.Fatalf("entry %s not cached", key)
			}
			if !starts[unsafe.SliceData(p)] {
				t.Fatalf("%s: no part starts at the cache's entry %s: the job holds a copy", st.ID, key)
			}
		}
	}
}

// Client.Result refuses a body whose Content-Length is above
// MaxResultBytes before reading or allocating it, and a body shorter
// than its Content-Length is an error. Without a length the read is
// bounded.
func TestClientResultBounds(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/huge/result":
			w.Header().Set("Content-Length", strconv.FormatInt(MaxResultBytes+1, 10))
			w.WriteHeader(http.StatusOK)
		case "/v1/jobs/short/result":
			w.Header().Set("Content-Length", "100")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("0123456789")) //nolint:errcheck // the test inspects the client side
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Result("huge")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxResultBytes)) {
		t.Fatalf("oversized result: err = %v, want one naming the %d-byte limit", err, MaxResultBytes)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the oversized result allocated %d bytes", got)
	}
	if _, err := c.Result("short"); err == nil {
		t.Fatal("a body shorter than its Content-Length was accepted")
	}

	// The bounded read used when the length is absent.
	const limit = 500
	if b, err := readBody(strings.NewReader(strings.Repeat("x", limit)), -1, limit); err != nil || len(b) != limit {
		t.Fatalf("a body at the limit: %d bytes, err %v", len(b), err)
	}
	if _, err := readBody(strings.NewReader(strings.Repeat("x", limit+1)), -1, limit); err == nil || !strings.Contains(err.Error(), "500-byte limit") {
		t.Fatalf("a body over the limit: err = %v, want one naming the limit", err)
	}
}
