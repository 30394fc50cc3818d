package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"factorml/internal/gmm"
	"factorml/internal/monitor"
	"factorml/internal/nn"
	"factorml/internal/storage"
)

// Kind identifies a model family in the registry.
type Kind string

const (
	// KindGMM is a Gaussian mixture (gmm.Model).
	KindGMM Kind = "gmm"
	// KindNN is a feed-forward network (nn.Network).
	KindNN Kind = "nn"
)

// ModelInfo describes one registered model.
type ModelInfo struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	// Version counts saves under this name, starting at 1; it bumps on
	// every overwrite, which is what lets the engine invalidate its cached
	// per-model state.
	Version int `json:"version"`
	// Dim is the model's joined feature width.
	Dim int `json:"dim"`
	// SavedAt is when this version was written.
	SavedAt time.Time `json:"saved_at"`
	// Lineage is the version's provenance — trained-at, training row
	// count, planner decision, and the baseline statistics drift scoring
	// compares against. Optional: models saved before lineage existed
	// (or without monitoring) load with a nil Lineage.
	Lineage *monitor.Lineage `json:"lineage,omitempty"`
}

// envelopeFormat versions the blob wrapper around the model payloads (the
// payloads carry their own format versions via gmm/nn serialization).
const envelopeFormat = 1

// modelBlobPrefix namespaces model blobs within the database's blob store.
const modelBlobPrefix = "model."

type envelope struct {
	Format      int              `json:"format"`
	Name        string           `json:"name"`
	Kind        Kind             `json:"kind"`
	Version     int              `json:"version"`
	SavedAtUnix int64            `json:"saved_at_unix"`
	Lineage     *monitor.Lineage `json:"lineage,omitempty"`
	Payload     json.RawMessage  `json:"payload"`
}

type entry struct {
	info ModelInfo
	gmm  *gmm.Model  // set when info.Kind == KindGMM
	nn   *nn.Network // set when info.Kind == KindNN
}

// Registry is a concurrency-safe catalog of named, versioned models
// persisted as blobs in a storage database directory. Every model is kept
// deserialized in memory; saving writes through to disk, and NewRegistry
// loads everything back on boot.
type Registry struct {
	mu     sync.RWMutex
	db     *storage.Database
	models map[string]*entry
}

var modelNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$`)

// ValidModelName reports whether name is acceptable to the registry:
// 1-64 characters, alphanumeric plus '_' and '-', starting alphanumeric.
func ValidModelName(name string) bool { return modelNameRE.MatchString(name) }

// NewRegistry opens the model registry of a database directory, loading
// every persisted model into memory. A "model.<name>.tmp" blob, <name> a
// valid model name, is the temp an older release's crash left behind (its
// writer used that name, which the blob store now lists): it is deleted,
// so no checkpoint copies it again. Any other foreign "model." blob is
// skipped.
func NewRegistry(db *storage.Database) (*Registry, error) {
	r := &Registry{db: db, models: make(map[string]*entry)}
	names, err := db.BlobNames()
	if err != nil {
		return nil, err
	}
	for _, blobName := range names {
		name, ok := strings.CutPrefix(blobName, modelBlobPrefix)
		if !ok {
			continue
		}
		if stem, tmp := strings.CutSuffix(name, ".tmp"); tmp && ValidModelName(stem) {
			if err := db.DeleteBlob(blobName); err != nil {
				return nil, fmt.Errorf("serve: removing leftover temp: %w", err)
			}
			continue
		}
		if !ValidModelName(name) {
			continue // not the registry's: a suffix that names no model
		}
		blob, err := db.GetBlob(blobName)
		if err != nil {
			return nil, err
		}
		e, err := decodeEnvelope(blob)
		if err != nil {
			return nil, fmt.Errorf("serve: loading %q: %w", blobName, err)
		}
		if name != e.info.Name {
			return nil, fmt.Errorf("serve: blob %q contains model %q", blobName, e.info.Name)
		}
		r.models[e.info.Name] = e
	}
	return r, nil
}

func decodeEnvelope(blob []byte) (*entry, error) {
	var env envelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("decoding model envelope: %w", err)
	}
	if env.Format != envelopeFormat {
		return nil, fmt.Errorf("unsupported model envelope format %d", env.Format)
	}
	if !ValidModelName(env.Name) {
		return nil, fmt.Errorf("invalid model name %q in envelope", env.Name)
	}
	e := &entry{info: ModelInfo{
		Name: env.Name, Kind: env.Kind, Version: env.Version,
		SavedAt: time.Unix(env.SavedAtUnix, 0).UTC(),
		Lineage: env.Lineage,
	}}
	switch env.Kind {
	case KindGMM:
		m, err := gmm.LoadModel(bytes.NewReader(env.Payload))
		if err != nil {
			return nil, err
		}
		e.gmm = m
		e.info.Dim = m.D
	case KindNN:
		n, err := nn.LoadNetwork(bytes.NewReader(env.Payload))
		if err != nil {
			return nil, err
		}
		e.nn = n
		e.info.Dim = n.InputDim()
	default:
		return nil, fmt.Errorf("unknown model kind %q", env.Kind)
	}
	return e, nil
}

// save persists a model under name, bumping its version. savePayload must
// write the model's serialized form. lin, when non-nil, replaces the
// version's lineage; a nil lin carries the previous version's lineage
// forward, so a plain re-save never loses provenance.
func (r *Registry) save(name string, kind Kind, dim int, lin *monitor.Lineage, savePayload func(io.Writer) error, attach func(*entry)) error {
	if !ValidModelName(name) {
		return fmt.Errorf("serve: invalid model name %q (want %s)", name, modelNameRE)
	}
	var payload bytes.Buffer
	if err := savePayload(&payload); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	version := 1
	if prev, ok := r.models[name]; ok {
		version = prev.info.Version + 1
		if lin == nil && prev.info.Kind == kind {
			lin = prev.info.Lineage
		}
	}
	now := time.Now().UTC().Truncate(time.Second)
	env := envelope{
		Format: envelopeFormat, Name: name, Kind: kind, Version: version,
		SavedAtUnix: now.Unix(), Lineage: lin, Payload: bytes.TrimSpace(payload.Bytes()),
	}
	blob, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		return err
	}
	if err := r.db.PutBlob(modelBlobPrefix+name, blob); err != nil {
		return err
	}
	e := &entry{info: ModelInfo{Name: name, Kind: kind, Version: version, Dim: dim, SavedAt: now, Lineage: lin}}
	attach(e)
	r.models[name] = e
	return nil
}

// SaveGMM persists a mixture model under name (creating version 1, or
// bumping the version of an existing model of any kind). The registry keeps
// a reference to m; callers must not mutate it afterwards. Lineage of a
// previous same-kind version carries forward unchanged.
func (r *Registry) SaveGMM(name string, m *gmm.Model) error {
	return r.SaveGMMLineage(name, m, nil)
}

// SaveGMMLineage is SaveGMM with fresh per-version lineage metadata
// (trained-at, training rows, planner decision, baseline statistics).
func (r *Registry) SaveGMMLineage(name string, m *gmm.Model, lin *monitor.Lineage) error {
	if m == nil {
		return fmt.Errorf("serve: nil GMM model")
	}
	return r.save(name, KindGMM, m.D, lin, m.Save, func(e *entry) { e.gmm = m })
}

// SaveNN persists a network under name. The registry keeps a reference to
// n; callers must not mutate it afterwards. Lineage of a previous
// same-kind version carries forward unchanged.
func (r *Registry) SaveNN(name string, n *nn.Network) error {
	return r.SaveNNLineage(name, n, nil)
}

// SaveNNLineage is SaveNN with fresh per-version lineage metadata.
func (r *Registry) SaveNNLineage(name string, n *nn.Network, lin *monitor.Lineage) error {
	if n == nil {
		return fmt.Errorf("serve: nil NN model")
	}
	return r.save(name, KindNN, n.InputDim(), lin, n.Save, func(e *entry) { e.nn = n })
}

// errUnknownModel marks lookups of unregistered names (mapped to 404 by the
// HTTP layer).
type errUnknownModel struct{ name string }

func (e errUnknownModel) Error() string { return fmt.Sprintf("serve: no model %q", e.name) }

// IsUnknownModel reports whether err is a lookup of an unregistered model.
func IsUnknownModel(err error) bool {
	_, ok := err.(errUnknownModel)
	return ok
}

// GMM returns the named mixture model. The model is shared: treat it as
// read-only.
func (r *Registry) GMM(name string) (*gmm.Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return nil, errUnknownModel{name}
	}
	if e.info.Kind != KindGMM {
		return nil, fmt.Errorf("serve: model %q is a %s, not a gmm", name, e.info.Kind)
	}
	return e.gmm, nil
}

// NN returns the named network. The network is shared: treat it as
// read-only.
func (r *Registry) NN(name string) (*nn.Network, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return nil, errUnknownModel{name}
	}
	if e.info.Kind != KindNN {
		return nil, fmt.Errorf("serve: model %q is a %s, not a nn", name, e.info.Kind)
	}
	return e.nn, nil
}

// Get returns the named model's metadata.
func (r *Registry) Get(name string) (ModelInfo, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return ModelInfo{}, false
	}
	return e.info, true
}

// List returns the metadata of every registered model, sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Delete removes the named model from memory and disk.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return errUnknownModel{name}
	}
	if err := r.db.DeleteBlob(modelBlobPrefix + name); err != nil {
		return err
	}
	delete(r.models, name)
	return nil
}

// lookup returns the full entry for the engine's hot path.
func (r *Registry) lookup(name string) (*entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	return e, ok
}
