package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"factorml/internal/serve"
	"factorml/internal/stream"
)

// parkedBody is a request body whose first Read reports that the handler
// got past admission — predict and ingest both admit before they read a
// byte — and then waits for release, so the request holds its slot.
type parkedBody struct {
	io.ReadCloser
	once     sync.Once
	admitted chan<- struct{}
	release  <-chan struct{}
}

func (b *parkedBody) Read(p []byte) (int, error) {
	b.once.Do(func() {
		b.admitted <- struct{}{}
		<-b.release
	})
	return b.ReadCloser.Read(p)
}

// TestOneRetryAfter pins the one Retry-After hint: a predict over its
// model's in-flight cap, an ingest over the full queue, the booting
// stand-in and every other 503 all answer Retry-After: 1.
func TestOneRetryAfter(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	if err := reg.SaveNN("m", net); err != nil {
		t.Fatal(err)
	}
	st, err := stream.New(db, spec, stream.Options{Policy: stream.Policy{NumWorkers: 1}, MaxQueuedIngest: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(eng,
		serve.WithLimits(serve.Limits{MaxInFlightPerModel: 1, MaxQueuedIngest: 1}),
		serve.WithStream(st.Handler(), st.RefreshHandler(), st.Sections()...))
	admitted := make(chan struct{})
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Park") != "" {
			r.Body = &parkedBody{ReadCloser: r.Body, admitted: admitted, release: release}
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rows, _ := factRows(t, spec, 1)
	predict, err := json.Marshal(map[string]any{"rows": rowsJSON(rows)})
	if err != nil {
		t.Fatal(err)
	}
	send := func(url string, body []byte, park bool) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if park {
			req.Header.Set("X-Park", "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	check := func(what string, resp *http.Response, status int) {
		t.Helper()
		if resp == nil {
			t.Fatalf("%s: no response", what)
		}
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d", what, resp.StatusCode, status)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("%s: Retry-After = %q, want \"1\"", what, ra)
		}
	}
	// overload parks one admitted request in its body read, sends a second
	// to the same endpoint, and lets the first finish.
	overload := func(what, url string, body []byte) {
		t.Helper()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(url, body, true)
		}()
		<-admitted
		resp := send(url, body, false)
		release <- struct{}{}
		wg.Wait()
		check(what, resp, http.StatusTooManyRequests)
	}
	overload("predict over the in-flight cap", ts.URL+"/v1/models/m/predict", predict)
	overload("ingest over the full queue", ts.URL+"/v1/ingest", []byte(`{}`))

	get := func(url string) *http.Response {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	booting := httptest.NewServer(serve.BootingHandler())
	defer booting.Close()
	check("booting", get(booting.URL+"/v1/models"), http.StatusServiceUnavailable)

	bare := serve.NewServer(eng)
	plain := httptest.NewServer(bare)
	defer plain.Close()
	check("stream disabled", send(plain.URL+"/v1/ingest", []byte(`{}`), false), http.StatusServiceUnavailable)
	check("monitoring disabled", get(plain.URL+"/v1/models/m/health"), http.StatusServiceUnavailable)
	bare.SetReady(false)
	check("not ready", get(plain.URL+"/readyz"), http.StatusServiceUnavailable)
}
