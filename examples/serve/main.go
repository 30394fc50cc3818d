// Serving walkthrough: train a network and a mixture over a normalized
// star schema, persist them in the model registry, boot the factorized
// inference server, and query it over HTTP — demonstrating that served
// predictions match in-process evaluation and that repeated foreign keys
// hit the dimension cache (dimension-tuple work is done once, not once per
// row, at serve time just like at train time).
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"

	"factorml"
)

func main() {
	dir, err := os.MkdirTemp("", "factorml-serve-")
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
	rng := rand.New(rand.NewSource(42))
	const nItems, nOrders = 100, 5000
	itemFeats := make([][]float64, nItems)
	for i := 0; i < nItems; i++ {
		itemFeats[i] = []float64{10 + 90*rng.Float64(), float64(rng.Intn(5)), 0.1 + 5*rng.Float64()}
		if err := items.Append(int64(i), itemFeats[i]); err != nil {
			log.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount", "hour"}, true, items)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < nOrders; i++ {
		item := rng.Intn(nItems)
		amount := 1 + 4*rng.Float64()
		hour := float64(rng.Intn(24))
		target := amount*itemFeats[item][0] + 0.5*rng.NormFloat64()
		if err := orders.Append(int64(i), []int64{int64(item)}, []float64{amount, hour}, target); err != nil {
			log.Fatal(err)
		}
	}
	ds, err := db.Dataset(orders)
	if err != nil {
		log.Fatal(err)
	}

	// Train factorized, then persist both models in the registry.
	nres, err := factorml.TrainNN(ds, factorml.Factorized, factorml.NNConfig{Hidden: []int{16}, Epochs: 5})
	if err != nil {
		log.Fatal(err)
	}
	gres, err := factorml.TrainGMM(ds, factorml.Factorized, factorml.GMMConfig{K: 3, MaxIter: 5})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.SaveNN("orders-nn", nres.Net); err != nil {
		log.Fatal(err)
	}
	if err := db.SaveGMM("orders-gmm", gres.Model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained and saved orders-nn (loss %.4f) and orders-gmm (LL %.1f)\n",
		nres.Stats.FinalLoss(), gres.Stats.FinalLL())

	// Boot the HTTP server on a free local port.
	handler, err := factorml.NewServer(db, []string{"items"})
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
	fmt.Printf("serving on %s\n", base)

	// A batch of normalized rows: fact features + the item foreign key. The
	// join is never materialized — the server resolves fk→item features and
	// caches each item's partial computation once.
	body := `{"rows":[
		{"fact":[2.5,14],"fks":[7]},
		{"fact":[1.0,9],"fks":[7]},
		{"fact":[4.2,20],"fks":[13]}
	]}`
	resp, err := http.Post(base+"/v1/models/orders-nn/predict", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var nnOut struct {
		Predictions []struct {
			Output float64 `json:"output"`
		} `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&nnOut); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	// Check the first served prediction against in-process evaluation over
	// the assembled joined vector.
	joined := append([]float64{2.5, 14}, itemFeats[7]...)
	inProc := nres.Net.Predict(joined)
	fmt.Printf("served nn outputs: %.6f %.6f %.6f\n",
		nnOut.Predictions[0].Output, nnOut.Predictions[1].Output, nnOut.Predictions[2].Output)
	fmt.Printf("in-process Predict over the joined row: %.6f (diff %.2g)\n",
		inProc, math.Abs(inProc-nnOut.Predictions[0].Output))

	resp, err = http.Post(base+"/v1/models/orders-gmm/predict", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var gmmOut struct {
		Predictions []struct {
			LogProb float64 `json:"log_prob"`
			Cluster int     `json:"cluster"`
		} `json:"predictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gmmOut); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	for i, p := range gmmOut.Predictions {
		fmt.Printf("served gmm row %d: log p(x) = %.3f, cluster %d\n", i, p.LogProb, p.Cluster)
	}

	// The repeated fks=[7] rows hit the dimension cache.
	resp, err = http.Get(base + "/statsz")
	if err != nil {
		log.Fatal(err)
	}
	var stats struct {
		Hits    uint64  `json:"dim_cache_hits"`
		Misses  uint64  `json:"dim_cache_misses"`
		HitRate float64 `json:"dim_cache_hit_rate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("dimension cache: %d hits / %d misses (hit rate %.0f%%)\n",
		stats.Hits, stats.Misses, 100*stats.HitRate)
}
