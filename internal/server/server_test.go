package server

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/sematype/pythagoras/internal/core"
	"github.com/sematype/pythagoras/internal/data"
	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/table"
)

// trainedServer builds a quickly trained model behind the handler.
func trainedServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	c := data.GenerateSportsTables(data.SportsConfig{
		NumTables: 22, Seed: 11, MinRows: 5, MaxRows: 8, WeakNameProb: 0.1, Domains: 2,
	})
	enc := lm.NewEncoder(lm.Config{Dim: 32, Layers: 1, Heads: 2, FFNDim: 64, MaxLen: 128, Buckets: 1 << 12, Seed: 7})
	cfg := core.DefaultConfig(enc)
	cfg.Epochs = 3
	cfg.Patience = 3
	m, err := core.TrainCtx(context.Background(), c, []int{0, 1, 2, 3, 4, 5}, []int{6, 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, 0, opts...)
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func sampleRequest(id string) TableRequest {
	return TableRequest{
		ID:   id,
		Name: "NBA Player Stats",
		Columns: []ColumnRequest{
			{Header: "Player", Values: []string{"Lebron James", "Myles Turner"}},
			{Header: "PPG", Values: []string{"28.1", "15.2"}},
		},
	}
}

func TestPredictEndpoint(t *testing.T) {
	s := trainedServer(t)
	rec := postJSON(t, s, "/v1/predict", sampleRequest(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Columns) != 2 {
		t.Fatalf("columns = %d", len(resp.Columns))
	}
	kinds := map[string]string{}
	for _, c := range resp.Columns {
		if c.Type == "" || c.Confidence <= 0 {
			t.Fatalf("bad column response: %+v", c)
		}
		kinds[c.Header] = c.Kind
	}
	if kinds["Player"] != "text" || kinds["PPG"] != "numeric" {
		t.Fatalf("kind inference wrong: %v", kinds)
	}
}

func TestPredictRejectsBadBodies(t *testing.T) {
	s := trainedServer(t)
	cases := []string{
		`{`,                       // malformed
		`{"name":"x"}`,            // no columns
		`{"unknown_field": true}`, // unknown field
		`{"name":"x","columns":[{"header":"a","values":["1"]},{"header":"b","values":["1","2"]}]}`, // ragged
	}
	for _, body := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d", body, rec.Code)
		}
	}
}

func TestPredictMethodNotAllowed(t *testing.T) {
	s := trainedServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/predict", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict = %d", rec.Code)
	}
}

func TestIndexAndSearchFlow(t *testing.T) {
	s := trainedServer(t)
	// Index two tables.
	for _, id := range []string{"t1", "t2"} {
		rec := postJSON(t, s, "/v1/index", sampleRequest(id))
		if rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d: %s", id, rec.Code, rec.Body)
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Indexed {
			t.Fatal("response must confirm indexing")
		}
	}
	if got := s.index.Current().Stats().Tables; got != 2 {
		t.Fatalf("indexed tables = %d", got)
	}

	// Search for whatever type t1's numeric column got.
	var probe PredictResponse
	rec := postJSON(t, s, "/v1/predict", sampleRequest("probe"))
	if err := json.Unmarshal(rec.Body.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	numType := ""
	for _, c := range probe.Columns {
		if c.Kind == "numeric" {
			numType = c.Type
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/search?type="+numType, nil)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("search = %d", rec2.Code)
	}
	var sr SearchResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Tables) != 2 {
		t.Fatalf("search hits = %v (type %s)", sr.Tables, numType)
	}
}

func TestIndexRequiresID(t *testing.T) {
	s := trainedServer(t)
	rec := postJSON(t, s, "/v1/index", sampleRequest(""))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("index without id = %d", rec.Code)
	}
}

func TestSearchRequiresType(t *testing.T) {
	s := trainedServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/search", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("search without type = %d", rec.Code)
	}
}

func TestTypesAndHealthz(t *testing.T) {
	s := trainedServer(t)
	for _, path := range []string{"/v1/types", "/v1/healthz"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", path, rec.Code)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

func TestJoinAndUnionEndpoints(t *testing.T) {
	s := trainedServer(t)
	for _, id := range []string{"t1", "t2", "t3"} {
		rec := postJSON(t, s, "/v1/index", sampleRequest(id))
		if rec.Code != http.StatusOK {
			t.Fatalf("index %s = %d", id, rec.Code)
		}
	}
	// discover the numeric type assigned by the model
	var probe PredictResponse
	rec := postJSON(t, s, "/v1/predict", sampleRequest("probe"))
	if err := json.Unmarshal(rec.Body.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	numType := ""
	for _, c := range probe.Columns {
		if c.Kind == "numeric" {
			numType = c.Type
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/join?type="+numType+"&limit=2", nil)
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusOK {
		t.Fatalf("join = %d: %s", rec2.Code, rec2.Body)
	}
	var joinBody struct {
		Candidates []map[string]any `json:"candidates"`
	}
	if err := json.Unmarshal(rec2.Body.Bytes(), &joinBody); err != nil {
		t.Fatal(err)
	}
	if len(joinBody.Candidates) != 2 {
		t.Fatalf("join candidates = %d, want limit 2", len(joinBody.Candidates))
	}
	// Candidates identify columns by position, not just header — duplicate
	// headers are routine in scraped lakes.
	for _, c := range joinBody.Candidates {
		for _, key := range []string{"LeftColIndex", "RightColIndex"} {
			if _, ok := c[key]; !ok {
				t.Fatalf("join candidate missing %s: %v", key, c)
			}
		}
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/union?table=t1&k=5", nil)
	rec3 := httptest.NewRecorder()
	s.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusOK {
		t.Fatalf("union = %d: %s", rec3.Code, rec3.Body)
	}
	var unionBody struct {
		Candidates []map[string]any `json:"candidates"`
	}
	if err := json.Unmarshal(rec3.Body.Bytes(), &unionBody); err != nil {
		t.Fatal(err)
	}
	if len(unionBody.Candidates) != 2 { // t2, t3 are identical tables
		t.Fatalf("union candidates = %d, want 2", len(unionBody.Candidates))
	}
}

func TestJoinUnionValidation(t *testing.T) {
	s := trainedServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/v1/join", http.StatusBadRequest},
		{"/v1/join?type=x&limit=bogus", http.StatusBadRequest},
		{"/v1/union", http.StatusBadRequest},
		{"/v1/union?table=ghost", http.StatusNotFound},
		{"/v1/union?table=x&k=-1", http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Fatalf("%s = %d, want %d", c.path, rec.Code, c.want)
		}
	}
}

// TestColumnKindRules pins how a request column's kind is decided, and
// where that departs from the CSV loader: a request column is numeric only
// when every value parses as a float as sent, while table.ReadCSV skips
// empty cells and strips thousands separators.
func TestColumnKindRules(t *testing.T) {
	for _, tc := range []struct {
		values       []string
		request, csv table.Kind
	}{
		{[]string{" 1.5", "2 "}, table.KindNumeric, table.KindNumeric},
		{[]string{"1,234", "5"}, table.KindText, table.KindNumeric},
		{[]string{"1", "", "3"}, table.KindText, table.KindNumeric},
		{[]string{"1", "x"}, table.KindText, table.KindText},
	} {
		tr := TableRequest{Columns: []ColumnRequest{{Header: "h", Values: tc.values}}}
		tbl, err := tr.toTable()
		if err != nil {
			t.Fatal(err)
		}
		// A second column keeps the CSV's one-empty-cell row from being a
		// blank line, which the CSV reader skips.
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		_ = w.Write([]string{"h", "g"})
		for _, v := range tc.values {
			_ = w.Write([]string{v, "x"})
		}
		w.Flush()
		fromCSV, err := table.ReadCSV("t", "t", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tbl.Columns[0].Kind, tc.request; got != want {
			t.Errorf("%q: request column kind %v, want %v", tc.values, got, want)
		}
		if got, want := fromCSV.Columns[0].Kind, tc.csv; got != want {
			t.Errorf("%q: CSV column kind %v, want %v", tc.values, got, want)
		}
	}
}

// TestPredictRejectsNonFiniteCells covers numeric cells that parse to NaN
// or ±Inf. They used to reach the feature extractor, which panicked on NaN
// (a 500 for one table; inside a batch the panic hit a worker goroutine and
// took the process down) and never returned on ±Inf. Now each is a 400
// naming the column, the server keeps serving, and finite extremes still
// predict.
func TestPredictRejectsNonFiniteCells(t *testing.T) {
	s := trainedServer(t)
	withPPG := func(vals ...string) TableRequest {
		r := sampleRequest("")
		r.Columns[1].Values = vals
		return r
	}
	for _, vals := range [][]string{{"NaN", "1"}, {"Inf", "1"}, {"2", "-Infinity"}, {"+Inf", "nan"}} {
		rec := postJSON(t, s, "/v1/predict", withPPG(vals...))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `\"PPG\"`) {
			t.Fatalf("predict %v: status %d, body %s; want 400 naming PPG", vals, rec.Code, rec.Body)
		}
		batch := BatchRequest{Tables: []TableRequest{sampleRequest("ok"), withPPG(vals...)}}
		rec = postJSON(t, s, "/v1/predict-batch", batch)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "table 1") ||
			!strings.Contains(rec.Body.String(), `\"PPG\"`) {
			t.Fatalf("predict-batch %v: status %d, body %s; want 400 naming table 1 and PPG", vals, rec.Code, rec.Body)
		}
	}
	// A column that does not parse as numbers throughout stays text, NaN
	// cell or not.
	if rec := postJSON(t, s, "/v1/predict", withPPG("NaN", "n/a")); rec.Code != http.StatusOK {
		t.Fatalf("text column with a NaN cell: status %d, body %s", rec.Code, rec.Body)
	}
	// Finite cells whose range overflows float64 or whose tenth underflows
	// to 0 used to panic the extractor; they predict now, singly and batched.
	for _, vals := range [][]string{{"-1e308", "1e308"}, {"5e-324", "0"}} {
		if rec := postJSON(t, s, "/v1/predict", withPPG(vals...)); rec.Code != http.StatusOK {
			t.Fatalf("predict %v: status %d, body %s", vals, rec.Code, rec.Body)
		}
		batch := BatchRequest{Tables: []TableRequest{sampleRequest("ok"), withPPG(vals...)}}
		if rec := postJSON(t, s, "/v1/predict-batch", batch); rec.Code != http.StatusOK {
			t.Fatalf("predict-batch %v: status %d, body %s", vals, rec.Code, rec.Body)
		}
	}
	if rec := postJSON(t, s, "/v1/predict", sampleRequest("")); rec.Code != http.StatusOK {
		t.Fatalf("server stopped serving: status %d", rec.Code)
	}
}
