// Streaming walkthrough: train and serve models over a normalized star
// schema, then keep them fresh while the data changes — new orders stream
// in through the change feed, a dimension tuple (an item's attributes) is
// updated in place, and the models are refreshed incrementally: the GMM
// refresh costs time proportional to the delta (one warm-start EM step
// from maintained factorized statistics, bit-identical to recomputing
// over base+delta), while the served predictions pick up dimension
// updates immediately through surgical cache invalidation — all without
// restarting the server.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"

	"factorml"
)

func main() {
	dir, err := os.MkdirTemp("", "factorml-streaming-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := factorml.Open(dir, factorml.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Normalized schema: Orders(sid, fk→Items; amount, hour) ⋈ Items(rid;
	// price, size, weight).
	items, err := db.CreateDimensionTable("items", []string{"price", "size", "weight"})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const nItems, nOrders = 80, 4000
	for i := 0; i < nItems; i++ {
		feats := []float64{10 + 90*rng.Float64(), float64(rng.Intn(5)), 0.1 + 5*rng.Float64()}
		if err := items.Append(int64(i), feats); err != nil {
			log.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount", "hour"}, true, items)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < nOrders; i++ {
		if err := orders.Append(int64(i), []int64{int64(rng.Intn(nItems))},
			[]float64{1 + 4*rng.Float64(), float64(rng.Intn(24))}, 10*rng.NormFloat64()); err != nil {
			log.Fatal(err)
		}
	}
	ds, err := db.Dataset(orders)
	if err != nil {
		log.Fatal(err)
	}

	// Train factorized and persist in the registry.
	gres, err := factorml.TrainGMM(ds, factorml.Factorized, factorml.GMMConfig{K: 3, MaxIter: 5})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.SaveGMM("orders-gmm", gres.Model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained orders-gmm over %d orders (LL %.1f)\n", nOrders, gres.Stats.FinalLL())

	// Boot the streaming prediction server: serving + change feed in one
	// handler. Every 1000 pending rows trigger an automatic refresh.
	handler, err := factorml.NewServer(db, []string{"items"},
		factorml.WithStream("orders", factorml.StreamPolicy{RefreshRows: 1000}))
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving + streaming on %s\n", base)

	predict := func() (float64, int) {
		resp, err := http.Post(base+"/v1/models/orders-gmm/predict", "application/json",
			strings.NewReader(`{"rows":[{"fact":[2.5,14],"fks":[7]}]}`))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Version     int `json:"version"`
			Predictions []struct {
				LogProb float64 `json:"log_prob"`
			} `json:"predictions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		return out.Predictions[0].LogProb, out.Version
	}

	lp0, v0 := predict()
	fmt.Printf("before any delta:         log p(x) = %.4f (model version %d)\n", lp0, v0)

	// 1. Update item 7 in place: the very next prediction reflects it —
	// the server invalidated exactly the cached partials of item 7.
	post := func(body string) map[string]any {
		resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != 200 {
			log.Fatalf("ingest failed: %v", m)
		}
		return m
	}
	post(`{"dims":[{"table":"items","rid":7,"features":[55,2,1.25]}]}`)
	lp1, v1 := predict()
	fmt.Printf("after dim update (live):  log p(x) = %.4f (model version %d, no refresh needed)\n", lp1, v1)

	// 2. Stream 1200 new orders in three batches; the third crosses the
	// 1000-row policy and triggers an automatic incremental refresh, which
	// republishes the model — the server picks up version 2 on its own.
	sid := int64(nOrders)
	for b := 0; b < 3; b++ {
		var rows []string
		for i := 0; i < 400; i++ {
			rows = append(rows, fmt.Sprintf(`{"sid":%d,"fks":[%d],"features":[%.3f,%d],"target":%.3f}`,
				sid, rng.Intn(nItems), 1+4*rng.Float64(), rng.Intn(24), 10*rng.NormFloat64()))
			sid++
		}
		res := post(`{"facts":[` + strings.Join(rows, ",") + `]}`)
		fmt.Printf("batch %d: pending_rows=%v refresh_triggered=%v\n", b+1, res["pending_rows"], res["refresh_triggered"])
	}
	lp2, v2 := predict()
	fmt.Printf("after auto refresh:       log p(x) = %.4f (model version %d)\n", lp2, v2)

	// Stream counters land in /statsz next to the serving counters.
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		log.Fatal(err)
	}
	var stats struct {
		DimInvalidations uint64 `json:"dim_invalidations"`
		Stream           struct {
			FactsIngested uint64 `json:"facts_ingested"`
			DimUpdates    uint64 `json:"dim_updates"`
			Refreshes     uint64 `json:"refreshes"`
			AutoRefreshes uint64 `json:"auto_refreshes"`
		} `json:"stream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("statsz: %d facts ingested, %d dim updates (%d cache invalidations), %d refreshes (%d automatic)\n",
		stats.Stream.FactsIngested, stats.Stream.DimUpdates, stats.DimInvalidations,
		stats.Stream.Refreshes, stats.Stream.AutoRefreshes)
}
