package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sematype/pythagoras/internal/faultinject"
	"github.com/sematype/pythagoras/internal/rescore"
)

// rescoreStatus decodes one GET /v1/index/rescore.
func rescoreStatus(t *testing.T, s *Server) rescore.Progress {
	t.Helper()
	rec := getPath(t, s, "/v1/index/rescore")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/index/rescore = %d: %s", rec.Code, rec.Body)
	}
	var resp rescore.Progress
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode rescore status: %v: %s", err, rec.Body)
	}
	return resp
}

// waitRescore polls the status endpoint until the run reaches one of the
// wanted states; any other terminal state fails the test.
func waitRescore(t *testing.T, s *Server, want ...string) rescore.Progress {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp := rescoreStatus(t, s)
		for _, w := range want {
			if resp.State == w {
				return resp
			}
		}
		switch resp.State {
		case "idle", "pending", "running":
		default:
			t.Fatalf("rescore reached %q (error %q), want one of %v", resp.State, resp.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rescore never reached %v", want)
	return rescore.Progress{}
}

// TestRescoreEndToEnd: index tables, kick a re-score, poll to completion —
// the serving index pointer flips to a fresh index with identical content
// (same model re-scored the same lake).
func TestRescoreEndToEnd(t *testing.T) {
	s := trainedServer(t, WithRescoreBatch(2))
	defer drain(t, s)

	if got := rescoreStatus(t, s); got.State != "idle" {
		t.Fatalf("pre-run state = %q, want idle", got.State)
	}

	ids := []string{"t1", "t2", "t3", "t4", "t5"}
	for _, id := range ids {
		if rec := postJSON(t, s, "/v1/index", sampleRequest(id)); rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d: %s", id, rec.Code, rec.Body)
		}
	}
	old := s.index.Current()
	oldDump := old.CanonicalDump()

	rec := postJSON(t, s, "/v1/index/rescore", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/index/rescore = %d: %s", rec.Code, rec.Body)
	}
	var started rescore.Progress
	if err := json.Unmarshal(rec.Body.Bytes(), &started); err != nil {
		t.Fatal(err)
	}
	if started.ModelID != "boot" {
		t.Fatalf("started on model %q, want boot", started.ModelID)
	}

	done := waitRescore(t, s, "done")
	if done.Total != len(ids) || done.Done != len(ids) || done.Skipped != 0 {
		t.Fatalf("final progress = %+v", done)
	}
	cur := s.index.Current()
	if cur == old {
		t.Fatal("index pointer never flipped")
	}
	// Same model, same lake, deterministic engine: content is unchanged even
	// though the index object is new.
	if got := cur.CanonicalDump(); !bytes.Equal(got, oldDump) {
		t.Fatalf("re-score with the same model changed the index:\n got:\n%s\nwant:\n%s", got, oldDump)
	}
}

// TestRescoreRefusedWhileDraining: the re-score route is admission-exempt,
// so the handler itself must turn a start away once Shutdown has begun. A
// scan started after Shutdown would miss Shutdown's await barrier and
// outlive the server.
func TestRescoreRefusedWhileDraining(t *testing.T) {
	s := trainedServer(t)
	if rec := postJSON(t, s, "/v1/index", sampleRequest("t1")); rec.Code != http.StatusOK {
		t.Fatalf("index t1 = %d: %s", rec.Code, rec.Body)
	}
	drain(t, s)

	rec := postJSON(t, s, "/v1/index/rescore", nil)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("POST /v1/index/rescore after Shutdown: status %d, Retry-After %q: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if got := rescoreStatus(t, s); got.State != "idle" {
		t.Fatalf("state after a refused start = %q, want idle", got.State)
	}
}

// TestRollbackCancelsRescore is the ISSUE's lifecycle chaos case: promote a
// new primary, start a re-score stretched by an injected per-batch stall,
// roll back mid-scan — the run cancels cleanly and queries keep seeing the
// pre-rescore index.
func TestRollbackCancelsRescore(t *testing.T) {
	srvFaults := faultinject.New().On(faultinject.RescoreBatch, faultinject.Sleep(200*time.Millisecond))
	s := chaosServer(t, nil, srvFaults, WithRescoreBatch(1))
	defer drain(t, s)

	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		if rec := postJSON(t, s, "/v1/index", sampleRequest(id)); rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d", id, rec.Code)
		}
	}
	old := s.index.Current()
	oldDump := old.CanonicalDump()

	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)

	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("start rescore = %d: %s", rec.Code, rec.Body)
	}
	// One re-score at a time.
	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusConflict {
		t.Fatalf("second rescore = %d, want 409", rec.Code)
	}
	if got := rescoreStatus(t, s); got.ModelID != "v2" {
		t.Fatalf("rescore running on model %q, want v2", got.ModelID)
	}

	// Operator pulls the new primary while the scan crawls.
	st := modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)
	if st.Primary == nil || st.Primary.ID != "boot" {
		t.Fatalf("rollback restored %+v", st.Primary)
	}
	fin := waitRescore(t, s, "cancelled")
	if fin.Done == fin.Total {
		t.Fatalf("run completed (%d/%d) before the rollback landed — stall too short", fin.Done, fin.Total)
	}

	// The old index serves untouched, no shadow left behind.
	if s.index.Current() != old || !bytes.Equal(s.index.Current().CanonicalDump(), oldDump) {
		t.Fatal("cancelled re-score disturbed the serving index")
	}
	if rec := getPath(t, s, "/v1/types"); rec.Code != http.StatusOK {
		t.Fatalf("discovery queries broken after cancel: %d", rec.Code)
	}
	// A fresh run may start now that the previous one is terminal.
	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("restart after cancel = %d: %s", rec.Code, rec.Body)
	}
	waitRescore(t, s, "done", "cancelled")
}

// TestRescoreAfterCancelSeesReindexedTables: a re-score cancelled mid-scan
// leaves nothing behind that the next run replays. A table re-indexed
// between the two runs must come out of the second run with its new
// columns — the ones /v1/index acknowledged and the lake holds — not the
// ones the cancelled run scored.
func TestRescoreAfterCancelSeesReindexedTables(t *testing.T) {
	// The driver launches batches in scan order: a and b run at once, c and
	// d stall until the promote cancels them, and every later batch runs at
	// once again.
	srvFaults := faultinject.New().On(faultinject.RescoreBatch,
		faultinject.After(2, faultinject.Times(2, faultinject.Sleep(10*time.Second))))
	s := chaosServer(t, nil, srvFaults, WithRescoreBatch(1))
	defer drain(t, s)

	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		if rec := postJSON(t, s, "/v1/index", sampleRequest(id)); rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d", id, rec.Code)
		}
	}
	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("start rescore = %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(15 * time.Second)
	for srvFaults.Fired(faultinject.RescoreBatch) < 4 {
		if time.Now().After(deadline) {
			t.Fatal("first re-score never reached its stalled batches")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A promote cancels the scan, a's content changes, and a rollback puts
	// the model the cancelled scan ran on back in service.
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)
	if fin := waitRescore(t, s, "cancelled"); fin.ModelID != "boot" {
		t.Fatalf("cancelled run's model = %q, want boot", fin.ModelID)
	}
	team := TableRequest{ID: "a", Name: "NBA Player Stats", Columns: []ColumnRequest{
		{Header: "Team", Values: []string{"Lakers", "Pacers"}},
	}}
	if rec := postJSON(t, s, "/v1/index", team); rec.Code != http.StatusOK {
		t.Fatalf("re-index a = %d: %s", rec.Code, rec.Body)
	}
	modelsPost(t, s, "/v1/models/rollback", nil, http.StatusOK)

	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("second rescore = %d: %s", rec.Code, rec.Body)
	}
	if fin := waitRescore(t, s, "done"); fin.ModelID != "boot" || fin.Total != 6 || fin.Done != 6 {
		t.Fatalf("second run's progress = %+v", fin)
	}
	dump := string(s.index.Current().CanonicalDump())
	var aLines []string
	for _, line := range strings.Split(dump, "\n") {
		if strings.HasPrefix(line, "a\t") {
			aLines = append(aLines, line)
		}
	}
	if len(aLines) != 1 || strings.Split(aLines[0], "\t")[2] != "Team" {
		t.Fatalf("a is indexed as %q, want only its new Team column:\n%s", aLines, dump)
	}
}

// TestRescoreStartSerializesWithPromote: starting a re-score races a
// promote. The start reads the primary under the re-score runner's lock, and
// the promote cancels a run whose slot is no longer primary only after it
// stores its new slot view, so the start either registers first (and that
// cancel kills the run on the demoted model) or reads the new primary — it
// can never run on the demoted model unnoticed. The injected ServerSwap
// stall holds the promote in its epilogue, after the store, so the start
// provably arrives mid-promote, reads the promoted primary, and runs to
// completion on it.
func TestRescoreStartSerializesWithPromote(t *testing.T) {
	srvFaults := faultinject.New().On(faultinject.ServerSwap, faultinject.Sleep(150*time.Millisecond))
	s := chaosServer(t, nil, srvFaults, WithRescoreBatch(2))
	defer drain(t, s)

	for _, id := range []string{"a", "b", "c", "d"} {
		if rec := postJSON(t, s, "/v1/index", sampleRequest(id)); rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d", id, rec.Code)
		}
	}
	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)

	promoteCode := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/promote", nil))
		promoteCode <- rec.Code
	}()
	// Let the promote reach its stalled swap epilogue (holding lcMu), then
	// race the start against it.
	time.Sleep(30 * time.Millisecond)
	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("start rescore = %d: %s", rec.Code, rec.Body)
	}
	if code := <-promoteCode; code != http.StatusOK {
		t.Fatalf("promote = %d", code)
	}
	fin := waitRescore(t, s, "done")
	if fin.ModelID != "v2" {
		t.Fatalf("re-score ran on %q, want the promoted primary v2", fin.ModelID)
	}
}

// TestPromoteCancelsRescore: promoting a new primary invalidates a re-score
// running on the old one — the driver is scoring with a model that is no
// longer primary, so promote cancels it the same way rollback does.
func TestPromoteCancelsRescore(t *testing.T) {
	srvFaults := faultinject.New().On(faultinject.RescoreBatch, faultinject.Sleep(200*time.Millisecond))
	s := chaosServer(t, nil, srvFaults, WithRescoreBatch(1))

	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		if rec := postJSON(t, s, "/v1/index", sampleRequest(id)); rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d", id, rec.Code)
		}
	}
	if rec := postJSON(t, s, "/v1/index/rescore", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("start rescore = %d", rec.Code)
	}

	path := savedCheckpoint(t, t.TempDir(), "v2.bin", false)
	modelsPost(t, s, "/v1/models", ModelsRequest{ID: "v2", Path: path}, http.StatusOK)
	modelsPost(t, s, "/v1/models/promote", nil, http.StatusOK)

	fin := waitRescore(t, s, "cancelled")
	if fin.ModelID != "boot" {
		t.Fatalf("cancelled run's model = %q, want boot", fin.ModelID)
	}
	// The lifecycle left a consistent story in the metrics.
	drain(t, s)
	snap := s.metrics.Snapshot()
	for _, key := range []string{
		`rescore.events{event="rescore-start"}`,
		`rescore.events{event="rescore-cancel"}`,
	} {
		if snap.Counters[key] < 1 {
			t.Fatalf("metric %s = %d, want >= 1", key, snap.Counters[key])
		}
	}
}
