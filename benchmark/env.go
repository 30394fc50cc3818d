package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"factorml"
)

const (
	factTable = "facts"
	gmmName   = "gmm"
	nnName    = "nn"
)

// env is one set-up system: the training database holding the whole log,
// and the durable live database (dimension tables plus the log's base
// prefix) behind an HTTP server on loopback.
type env struct {
	sh   *shape
	data *dataset
	root string

	trainDir string
	trainDB  *factorml.DB
	trainDS  *factorml.Dataset

	liveDir string
	live    *liveServer
}

// liveServer is a booted durable database with its serving stack.
type liveServer struct {
	db  *factorml.DB
	srv *factorml.Server
	ts  *httptest.Server
}

func (l *liveServer) close() error {
	l.ts.Close()
	return l.db.Close()
}

func (sh *shape) directNames() []string {
	names := make([]string, len(sh.direct))
	for j, ti := range sh.direct {
		names[j] = sh.dims[ti].name
	}
	return names
}

// loadTables creates the schema in db and appends the dimension tables and
// the first nFacts rows of the log.
func loadTables(db *factorml.DB, d *dataset, nFacts int) (*factorml.FactTable, error) {
	handles := make([]*factorml.DimensionTable, len(d.tables))
	for ti, t := range d.tables {
		cols := make([]string, t.spec.width)
		for k := range cols {
			cols[k] = fmt.Sprintf("%s_x%d", t.spec.name, k)
		}
		var subs []*factorml.DimensionTable
		for _, s := range t.spec.subs {
			subs = append(subs, handles[s])
		}
		h, err := db.CreateDimensionTable(t.spec.name, cols, subs...)
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < int64(t.spec.rows); i++ {
			if len(subs) > 0 {
				err = h.AppendRefs(i, t.subKeys(i), t.row(i))
			} else {
				err = h.Append(i, t.row(i))
			}
			if err != nil {
				return nil, err
			}
		}
		if err := h.Flush(); err != nil {
			return nil, err
		}
		handles[ti] = h
	}
	cols := make([]string, d.sh.factWidth)
	for k := range cols {
		cols[k] = fmt.Sprintf("s_x%d", k)
	}
	var direct []*factorml.DimensionTable
	for _, ti := range d.sh.direct {
		direct = append(direct, handles[ti])
	}
	fact, err := db.CreateFactTable(factTable, cols, true, direct...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nFacts; i++ {
		if err := fact.Append(int64(i), d.factFKs(i), d.factX(i), d.y[i]); err != nil {
			return nil, err
		}
	}
	return fact, fact.Flush()
}

func durability(sh *shape) factorml.DurabilityConfig {
	return factorml.DurabilityConfig{FsyncEvery: 1, SnapshotEvery: sh.snapshotEvery}
}

// bootLive opens the durable database in dir and serves it: recovery (when
// dir is a crash image), resident indexes, model attach, boot checkpoint.
// Telemetry options are appended by the telemetry probe only.
func bootLive(sh *shape, dir string, extra ...factorml.ServerOption) (*liveServer, error) {
	db, err := factorml.Open(dir, factorml.Options{NumWorkers: 1}, factorml.WithDurability(durability(sh)))
	if err != nil {
		return nil, err
	}
	opts := append([]factorml.ServerOption{
		factorml.WithEngineConfig(factorml.ServeConfig{NumWorkers: 1, CacheEntries: sh.cacheEntries}),
		factorml.WithStream(factTable, factorml.StreamPolicy{RebaselineEvery: sh.rebaselineEvery, NumWorkers: 1}),
	}, extra...)
	srv, err := factorml.NewServer(db, sh.directNames(), opts...)
	if err != nil {
		db.Close()
		return nil, err
	}
	return &liveServer{db: db, srv: srv, ts: httptest.NewServer(srv)}, nil
}

// setup builds the whole system under root from the seed, up to the first
// 200 from /readyz. Its wall-clock is the setup_s metric.
func setup(sh *shape, seed int64, root string) (*env, error) {
	e := &env{sh: sh, root: root, trainDir: filepath.Join(root, "train"), liveDir: filepath.Join(root, "live")}
	e.data = generate(sh, seed)

	var err error
	if e.trainDB, err = factorml.Open(e.trainDir, factorml.Options{NumWorkers: 1}); err != nil {
		return nil, err
	}
	fact, err := loadTables(e.trainDB, e.data, sh.logRows)
	if err != nil {
		return nil, err
	}
	if e.trainDS, err = e.trainDB.Dataset(fact); err != nil {
		return nil, err
	}
	// Pricing the strategies reads every table's catalog statistics.
	if _, err := factorml.PlanGMM(e.trainDS, sh.gmm); err != nil {
		return nil, err
	}
	if _, err := factorml.PlanNN(e.trainDS, sh.nn); err != nil {
		return nil, err
	}

	// The live database is loaded and the base models saved into it without
	// a write-ahead log, then reopened durable — the upgrade path an
	// operator takes.
	seedDB, err := factorml.Open(e.liveDir, factorml.Options{NumWorkers: 1})
	if err != nil {
		return nil, err
	}
	liveFact, err := loadTables(seedDB, e.data, sh.baseRows)
	if err != nil {
		return nil, err
	}
	liveDS, err := seedDB.Dataset(liveFact)
	if err != nil {
		return nil, err
	}
	baseDS := e.trainDS
	if sh.warmup {
		baseDS = liveDS
	}
	g, err := factorml.TrainGMM(baseDS, factorml.Factorized, sh.gmm)
	if err != nil {
		return nil, err
	}
	n, err := factorml.TrainNN(baseDS, factorml.Factorized, sh.nn)
	if err != nil {
		return nil, err
	}
	if err := seedDB.SaveGMM(gmmName, g.Model); err != nil {
		return nil, err
	}
	if err := seedDB.SaveNN(nnName, n.Net); err != nil {
		return nil, err
	}
	if err := seedDB.Close(); err != nil {
		return nil, err
	}

	if e.live, err = bootLive(sh, e.liveDir); err != nil {
		return nil, err
	}
	resp, err := http.Get(e.live.ts.URL + "/readyz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/readyz answered %d", resp.StatusCode)
	}
	return e, nil
}

// close shuts the environment down and deletes its files.
func (e *env) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if e.live != nil {
		keep(e.live.close())
	}
	if e.trainDB != nil {
		keep(e.trainDB.Close())
	}
	keep(os.RemoveAll(e.root))
	return first
}

// modelBytes serialises the stream's current models, the form the crash
// image self-check compares.
func modelBytes(st *factorml.Stream) (gmmB, nnB []byte, err error) {
	g, err := st.GMM(gmmName)
	if err != nil {
		return nil, nil, err
	}
	n, err := st.NN(nnName)
	if err != nil {
		return nil, nil, err
	}
	var gb, nb bytes.Buffer
	if err := g.Save(&gb); err != nil {
		return nil, nil, err
	}
	if err := n.Save(&nb); err != nil {
		return nil, nil, err
	}
	return gb.Bytes(), nb.Bytes(), nil
}
