package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
)

// TestSwapUnderFire is the lifecycle acceptance scenario (DESIGN.md §14):
// sustained predict-batch fire at 8× the admission capacity while the full
// lifecycle sequence — load, promote, rollback, load again, promote again,
// roll back again — executes mid-flight, with the swap epilogue and the
// handler path both stretched by injected latency. The guarantees under
// proof, all with `-race` via `make race`:
//
//   - every request resolves to exactly 200 (served, possibly after
//     queueing) or 429 (shed) — a swap never produces a 5xx, a dropped
//     connection, or a hung request;
//   - every 200 carries a complete, well-formed batch response — no request
//     observes a half-swapped engine;
//   - after the dust settles, no goroutine leaks.
func TestSwapUnderFire(t *testing.T) {
	const maxInflight = 2
	const clients = 8 * maxInflight
	const requestsEach = 6

	srvFaults := faultinject.New().
		On(faultinject.ServerHandle, faultinject.Sleep(15*time.Millisecond)).
		On(faultinject.ServerSwap, faultinject.Sleep(10*time.Millisecond)).
		On(faultinject.ServerShadow, faultinject.Sleep(time.Millisecond))
	s := chaosServer(t, nil, srvFaults, WithMaxInflight(maxInflight))
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	v2 := savedCheckpoint(t, dir, "v2.bin", true)
	v3 := savedCheckpoint(t, dir, "v3.bin", false)

	raw, _ := json.Marshal(batchBody(2))
	type outcome struct {
		code int
		body []byte
	}
	results := make([][]outcome, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		results[c] = make([]outcome, requestsEach)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for i := 0; i < requestsEach; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict-batch", bytes.NewReader(raw))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				results[c][i] = outcome{rec.Code, rec.Body.Bytes()}
			}
		}(c)
	}
	close(start)

	// The lifecycle sequence fires while the burst is in flight. Each step
	// pauses briefly so swaps land between, under, and around admitted
	// requests rather than bunching at the start.
	step := func(path string, body any) {
		modelsPost(t, s, path, body, http.StatusOK)
		time.Sleep(20 * time.Millisecond)
	}
	step("/v1/models", ModelsRequest{ID: "v2", Path: v2})
	step("/v1/models/promote", nil)
	step("/v1/models/rollback", nil) // restore boot
	step("/v1/models", ModelsRequest{ID: "v3", Path: v3})
	step("/v1/models/promote", nil)
	step("/v1/models/rollback", nil) // restore boot again
	wg.Wait()

	ok, shed := 0, 0
	for c := range results {
		for i, r := range results[c] {
			switch r.code {
			case http.StatusOK:
				ok++
				var br BatchResponse
				if err := json.Unmarshal(r.body, &br); err != nil || len(br.Results) != 2 {
					t.Fatalf("client %d req %d: 200 with bad body: %s", c, i, r.body)
				}
				for _, res := range br.Results {
					if len(res.Columns) != 2 {
						t.Fatalf("client %d req %d: half-formed result: %+v", c, i, res)
					}
				}
			case http.StatusTooManyRequests:
				shed++
			default:
				t.Fatalf("client %d req %d: status %d — swaps must never surface errors", c, i, r.code)
			}
		}
	}
	if ok == 0 {
		t.Fatal("no request was ever served during the swap storm")
	}
	t.Logf("swap under fire: %d served, %d shed across %d requests", ok, shed, clients*requestsEach)

	drain(t, s)
	settleGoroutines(t, base)
}
