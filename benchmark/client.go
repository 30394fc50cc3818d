package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"factorml"
	"factorml/internal/serve"
)

// client is one closed-loop HTTP client: one keep-alive connection, the
// next request sent only after the previous response is read.
type client struct {
	base string
	hc   *http.Client
	body bytes.Buffer
	rec  *recorder
	// phase and parent label the spans of the requests this client sends.
	phase  string
	parent int
	nReq   int
	// rejected, when set, counts 429 answers.
	rejected *atomic.Int64
}

func newClient(base string, rec *recorder, phase string, parent int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}, rec: rec, phase: phase, parent: parent}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and reads the whole response. The latency runs
// from just before the send to the last byte of the body; the returned
// slice is valid until the next call.
func (c *client) post(name, path, contentType string, body []byte) (int, time.Duration, []byte, error) {
	c.nReq++
	sp := c.rec.start(name, c.phase, c.parent, c.nReq)
	defer c.rec.end(sp)
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return resp.StatusCode, lat, nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests && c.rejected != nil {
		c.rejected.Add(1)
	}
	return resp.StatusCode, lat, c.body.Bytes(), nil
}

// predictions is a decoded predict response, wire-independent: val holds
// the NN output or the GMM log-probability per row.
type predictions struct {
	version int
	val     []float64
	cluster []int
}

type predictRowJSON struct {
	Fact []float64 `json:"fact"`
	FKs  []int64   `json:"fks"`
}

func encodeJSONPredict(rows []serve.Row) ([]byte, error) {
	req := struct {
		Rows []predictRowJSON `json:"rows"`
	}{Rows: make([]predictRowJSON, len(rows))}
	for i, r := range rows {
		req.Rows[i] = predictRowJSON{Fact: r.Fact, FKs: r.FKs}
	}
	return json.Marshal(req)
}

func decodeJSONPredict(body []byte, wantRows int) (*predictions, error) {
	var resp struct {
		Version     int `json:"version"`
		Predictions []struct {
			Output  *float64        `json:"output"`
			LogProb *float64        `json:"log_prob"`
			Cluster *int            `json:"cluster"`
			Err     json.RawMessage `json:"error"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Predictions) != wantRows {
		return nil, fmt.Errorf("%d predictions for %d rows", len(resp.Predictions), wantRows)
	}
	p := &predictions{version: resp.Version, val: make([]float64, wantRows), cluster: make([]int, wantRows)}
	for i, r := range resp.Predictions {
		switch {
		case len(r.Err) > 0:
			return nil, fmt.Errorf("row %d failed: %s", i, r.Err)
		case r.Output != nil:
			p.val[i] = *r.Output
		case r.LogProb != nil && r.Cluster != nil:
			p.val[i], p.cluster[i] = *r.LogProb, *r.Cluster
		default:
			return nil, fmt.Errorf("row %d carries no value", i)
		}
	}
	return p, nil
}

func decodeBinaryPredict(body []byte, wantRows int) (*predictions, error) {
	info, preds, err := serve.DecodeBinaryResponse(body)
	if err != nil {
		return nil, err
	}
	if len(preds) != wantRows {
		return nil, fmt.Errorf("%d predictions for %d rows", len(preds), wantRows)
	}
	p := &predictions{version: info.Version, val: make([]float64, wantRows), cluster: make([]int, wantRows)}
	for i, r := range preds {
		if r.Err != "" {
			return nil, fmt.Errorf("row %d failed: %s", i, r.Err)
		}
		if info.Kind == serve.KindNN {
			p.val[i] = r.Output
		} else {
			p.val[i], p.cluster[i] = r.LogProb, r.Cluster
		}
	}
	return p, nil
}

// predict sends rows to model on the chosen wire and decodes the answer.
// Decoding happens after the latency clock has stopped.
func (c *client) predict(model string, rows []serve.Row, binary bool) (*predictions, time.Duration, error) {
	var body []byte
	var err error
	name, ct := "http.predict.json", "application/json"
	if binary {
		name, ct = "http.predict.binary", serve.BinaryContentType
		body, err = serve.AppendBinaryRequest(nil, rows)
	} else {
		body, err = encodeJSONPredict(rows)
	}
	if err != nil {
		return nil, 0, err
	}
	status, lat, resp, err := c.post(name, "/v1/models/"+model+"/predict", ct, body)
	if err != nil {
		return nil, lat, err
	}
	if status != http.StatusOK {
		return nil, lat, fmt.Errorf("predict answered %d: %s", status, resp)
	}
	var p *predictions
	if binary {
		p, err = decodeBinaryPredict(resp, len(rows))
	} else {
		p, err = decodeJSONPredict(resp, len(rows))
	}
	return p, lat, err
}

// ingest posts one change batch and returns the ack latency.
func (c *client) ingest(name string, b *factorml.StreamBatch) (time.Duration, error) {
	body, err := json.Marshal(b)
	if err != nil {
		return 0, err
	}
	status, lat, resp, err := c.post(name, "/v1/ingest", "application/json", body)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("ingest answered %d: %s", status, resp)
	}
	var res factorml.IngestResult
	if err := json.Unmarshal(resp, &res); err != nil {
		return lat, err
	}
	if res.Facts != len(b.Facts) || res.DimInserts != 0 || res.DimUpdates != len(b.Dims) {
		return lat, fmt.Errorf("ingest applied %d facts, %d inserts, %d updates; sent %d facts, %d updates",
			res.Facts, res.DimInserts, res.DimUpdates, len(b.Facts), len(b.Dims))
	}
	return lat, nil
}

// refresh posts an explicit refresh.
func (c *client) refresh() (factorml.RefreshResult, time.Duration, error) {
	var res factorml.RefreshResult
	status, lat, resp, err := c.post("http.refresh", "/v1/refresh", "", nil)
	if err != nil {
		return res, lat, err
	}
	if status != http.StatusOK {
		return res, lat, fmt.Errorf("refresh answered %d: %s", status, resp)
	}
	return res, lat, json.Unmarshal(resp, &res)
}
