package factorml

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"factorml/internal/factor"
)

// TestPublicAPIStreaming drives the facade's streaming surface: NewStream,
// DB.Ingest, DB.Refresh, and the combined streaming prediction server.
func TestPublicAPIStreaming(t *testing.T) {
	db := openDB(t)
	items, err := db.CreateDimensionTable("items", []string{"price", "size"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := items.Append(int64(i), []float64{float64(10 + i), float64(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount"}, true, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := orders.Append(int64(i), []int64{int64(i % 12)}, []float64{float64(i%9) * 0.5}, float64(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(orders)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveGMM("orders-gmm", gres.Model); err != nil {
		t.Fatal(err)
	}

	st, err := db.NewStream(orders, StreamPolicy{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AttachGMM("orders-gmm", gres.Model); err != nil {
		t.Fatal(err)
	}
	res, err := st.Ingest(StreamBatch{
		Dims: []DimUpdate{{Table: "items", RID: 99, Features: []float64{200, 1}}},
		Facts: []FactRow{
			{SID: 300, FKs: []int64{99}, Features: []float64{1.5}, Target: 1},
			{SID: 301, FKs: []int64{3}, Features: []float64{2.5}, Target: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Facts != 2 || res.DimInserts != 1 {
		t.Fatalf("ingest result: %+v", res)
	}
	if st.Pending() != 2 {
		t.Fatalf("pending = %d", st.Pending())
	}
	rres, err := st.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Models) != 1 || rres.Models[0].RowsAbsorbed != 2 {
		t.Fatalf("refresh result: %+v", rres)
	}
	refreshed, err := st.GMM("orders-gmm")
	if err != nil {
		t.Fatal(err)
	}
	if d := refreshed.MaxParamDiff(gres.Model); d == 0 {
		t.Fatal("refresh did not change the model")
	}
	// The refreshed model is republished in the registry.
	infos, err := db.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Version != 2 {
		t.Fatalf("registry after refresh: %+v", infos)
	}
	if c := st.Counters(); c.FactsIngested != 2 || c.Refreshes != 1 {
		t.Fatalf("counters: %+v", c)
	}

	// The streaming server exposes ingest + stream stats over HTTP.
	handler, err := NewServer(db, []string{"items"}, WithEngineConfig(ServeConfig{NumWorkers: 1}), WithStream("orders", StreamPolicy{NumWorkers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest",
		strings.NewReader(`{"facts":[{"sid":302,"fks":[3],"features":[0.5],"target":1}]}`)))
	if rec.Code != 200 {
		t.Fatalf("HTTP ingest: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	var stats struct {
		Stream StreamCounters `json:"stream"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Stream.FactsIngested != 1 || stats.Stream.AttachedModels != 1 {
		t.Fatalf("statsz stream section: %+v", stats.Stream)
	}
}

// TestStreamInheritsDatabaseWorkers pins Options.NumWorkers as the default
// for refresh training too: a stream whose policy leaves NumWorkers at
// zero — built by DB.NewStream or by NewServer(WithStream) — trains its
// refreshes on the database's pool size, as TrainNN does, and an explicit
// policy value still wins. The pool size is read off the pass observer,
// with a database default no machine's CPU count equals.
func TestStreamInheritsDatabaseWorkers(t *testing.T) {
	dbWorkers := runtime.NumCPU() + 1
	db, err := Open(t.TempDir(), Options{NumWorkers: dbWorkers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ds := buildRetail(t, db, 300, 10)
	orders, err := db.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []int // pool size of every pooled pass phase since the last reset
	factor.SetObserver(func(ev factor.PassEvent) {
		if ev.Phase == "scan" {
			return // a scan is sequential by definition
		}
		mu.Lock()
		seen = append(seen, ev.Workers)
		mu.Unlock()
	})
	t.Cleanup(func() { factor.SetObserver(nil) })
	// trainedOn runs fn and fails unless it trained, on want workers.
	trainedOn := func(what string, want int, fn func() error) {
		t.Helper()
		mu.Lock()
		seen = seen[:0]
		mu.Unlock()
		if err := fn(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) == 0 {
			t.Fatalf("%s: no training pass observed", what)
		}
		for _, w := range seen {
			if w != want {
				t.Fatalf("%s: a training pass ran on %d workers, want %d (all passes: %v)", what, w, want, seen)
			}
		}
	}

	var res *NNResult
	trainedOn("TrainNN", dbWorkers, func() (err error) {
		res, err = TrainNN(ds, Factorized, NNConfig{Hidden: []int{4}, Epochs: 1})
		return err
	})
	if err := db.SaveNN("orders-nn", res.Net); err != nil {
		t.Fatal(err)
	}
	row := func(sid int64) StreamBatch {
		return StreamBatch{Facts: []FactRow{{SID: sid, FKs: []int64{3}, Features: []float64{1.5, 7}, Target: 1}}}
	}
	refresh := func(st *Stream, sid int64) func() error {
		return func() error {
			if _, err := st.Ingest(row(sid)); err != nil {
				return err
			}
			_, err := st.Refresh()
			return err
		}
	}

	st, err := db.NewStream(orders, StreamPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AttachNN("orders-nn", res.Net); err != nil {
		t.Fatal(err)
	}
	trainedOn("NewStream refresh", dbWorkers, refresh(st, 300))

	srv, err := NewServer(db, []string{"items"}, WithStream("orders", StreamPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	trainedOn("NewServer(WithStream) refresh", dbWorkers, refresh(srv.Stream(), 301))

	st, err = db.NewStream(orders, StreamPolicy{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AttachNN("orders-nn", res.Net); err != nil {
		t.Fatal(err)
	}
	trainedOn("explicit policy refresh", 1, refresh(st, 302))
}
