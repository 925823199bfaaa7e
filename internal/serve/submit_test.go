package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"uvmsim/internal/config"
	"uvmsim/internal/mm"
)

// post sends a raw job request body and returns the status code and
// the response body.
func post(t *testing.T, c *Client, body []byte) (int, []byte) {
	t.Helper()
	resp, err := c.HTTPClient.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// A request body over the 1 MiB cap is answered 413 with the limit in
// the message, not cut short and misread; a valid request padded with
// whitespace up to the cap is accepted. Data after the request document
// is an error.
func TestSubmitBodyCap(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})

	over := []byte(`{"name":"` + strings.Repeat("a", maxSubmitBytes+1-len(`{"name":""}`)) + `"}`)
	if len(over) != maxSubmitBytes+1 {
		t.Fatalf("built a %d-byte body", len(over))
	}
	code, msg := post(t, c, over)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "1 MiB") {
		t.Fatalf("1 MiB + 1 byte: got %d %s, want 413 naming 1 MiB", code, msg)
	}

	req, err := json.Marshal(smallJob("padded"))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{maxSubmitBytes - 1, maxSubmitBytes} {
		padded := append(append([]byte{}, req...), bytes.Repeat([]byte(" \n"), maxSubmitBytes)...)[:size]
		code, msg := post(t, c, padded)
		if code != http.StatusAccepted {
			t.Fatalf("%d-byte padded request: got %d %s, want 202", size, code, msg)
		}
		var st JobStatus
		if err := json.Unmarshal(msg, &st); err != nil {
			t.Fatal(err)
		}
		if st, err := c.Wait(st.ID, nil); err != nil || st.State != StateDone {
			t.Fatalf("padded job: %+v, %v", st, err)
		}
	}

	if code, msg := post(t, c, append(req, req...)); code != http.StatusBadRequest || !strings.Contains(string(msg), "trailing data") {
		t.Fatalf("two request documents: got %d %s, want 400 naming trailing data", code, msg)
	}
}

// FuzzDecodeJobRequest feeds raw bodies to the submit path short of
// running a cell. It must never panic: a body is either accepted, with
// at most MaxCells cells and no scale above MaxScale, or rejected with
// a non-empty error.
func FuzzDecodeJobRequest(f *testing.F) {
	bad := config.Default()
	bad.WarpSize = 64
	mixed := smallJob("mixed")
	mixed.Colo = smallColoJob("").Colo[:1]
	big := JobRequest{}
	for i := 0; i < 100; i++ {
		big.Workloads = append(big.Workloads, "bfs")
		big.OversubPercents = append(big.OversubPercents, uint64(100+i))
		big.Policies = append(big.Policies, "adaptive")
	}
	for _, req := range []JobRequest{
		smallJob("seed"),
		smallColoJob("colo"),
		mixed,
		big,
		{Scale: 0.05, Workloads: []string{"bfs", "ra"}, OversubPercents: []uint64{110, 125}, Policies: []string{"disabled", "adaptive"}},
		{Scale: 0.05, Cells: []CellSpec{{Workload: "bfs", OversubPercent: 125, Base: &bad}}},
		{},
		{Workloads: []string{"nope"}},
		{Workloads: []string{"bfs"}, Policies: []string{"nope"}},
		{Workloads: []string{"bfs"}, OversubPercents: []uint64{0}},
		{Scale: -1, Workloads: []string{"bfs"}},
		{Scale: 1e6, Workloads: []string{"bfs"}},
		{Colo: []ColoSpec{{Tenants: "bfs:0:1", GPUs: 1}}},
		{Colo: []ColoSpec{{Tenants: "bfs:3:1", GPUs: 2, PoolMB: 8}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"workloads":["bfs"],"bogus":1}`))
	f.Add([]byte(`{"workloads":["bfs"]} {}`))
	f.Add([]byte(`{"workloads":["bfs"],"seeds":[1,2,3],"pipelines":[{}]}`))
	f.Add([]byte(`{"scale":0.02,"workloads":["bfs"],"pipelines":[{"planner":"nosuch"}]}`))
	f.Add([]byte(`{"scale":0.02,"cells":[{"workload":"bfs","oversubPercent":125,"base":{"MMPipeline":{"Batcher":"dedup"}}}]}`))

	maxCells := Options{}.withDefaults().MaxCells
	f.Fuzz(func(t *testing.T, body []byte) {
		_, p, err := decodeJobRequest(bytes.NewReader(body), maxCells)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejected with an empty error")
			}
			return
		}
		if n := len(p.units); n == 0 || n > maxCells {
			t.Fatalf("accepted a job of %d cells (limit %d)", n, maxCells)
		}
		for _, u := range p.units[:p.nCells] {
			if c := u.(*cell); !(c.scale > 0 && c.scale <= MaxScale) {
				t.Fatalf("accepted scale %v (limit %d)", c.scale, MaxScale)
			}
			if err := mm.CheckSpec(u.(*cell).base.MMPipeline); err != nil {
				t.Fatalf("accepted a cell whose stages cannot be built: %v", err)
			}
		}
	})
}
