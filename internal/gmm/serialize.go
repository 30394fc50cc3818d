package gmm

import (
	"encoding/json"
	"fmt"
	"io"

	"factorml/internal/linalg"
)

// modelJSON is the stable on-disk representation of a trained mixture.
type modelJSON struct {
	Version  int         `json:"version"`
	K        int         `json:"k"`
	D        int         `json:"d"`
	Diagonal bool        `json:"diagonal,omitempty"` // absent for a full covariance: those bytes predate the field
	Weights  []float64   `json:"weights"`
	Means    [][]float64 `json:"means"`
	Covs     [][]float64 `json:"covs"` // row-major D×D per component
}

const modelVersion = 1

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	out := modelJSON{Version: modelVersion, K: m.K, D: m.D, Diagonal: m.Diagonal, Weights: m.Weights, Means: m.Means}
	for _, c := range m.Covs {
		out.Covs = append(out.Covs, c.Data())
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadModel reads a model written by Save, validating its shape — and, for
// a model flagged diagonal, that it is one: the diagonal kernels never read
// an off-diagonal entry, so a stray one would otherwise be silently ignored.
func LoadModel(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("gmm: decoding model: %w", err)
	}
	if in.Version != modelVersion {
		return nil, fmt.Errorf("gmm: unsupported model version %d", in.Version)
	}
	if in.K < 1 || in.D < 1 {
		return nil, fmt.Errorf("gmm: invalid model shape K=%d D=%d", in.K, in.D)
	}
	if len(in.Weights) != in.K || len(in.Means) != in.K || len(in.Covs) != in.K {
		return nil, fmt.Errorf("gmm: component count mismatch in serialized model")
	}
	m := &Model{K: in.K, D: in.D, Diagonal: in.Diagonal, Weights: in.Weights, Means: in.Means}
	for k, mean := range in.Means {
		if len(mean) != in.D {
			return nil, fmt.Errorf("gmm: mean %d has dim %d, want %d", k, len(mean), in.D)
		}
		if len(in.Covs[k]) != in.D*in.D {
			return nil, fmt.Errorf("gmm: covariance %d has %d entries, want %d", k, len(in.Covs[k]), in.D*in.D)
		}
		for i, v := range in.Covs[k] {
			if in.Diagonal && v != 0 && i/in.D != i%in.D {
				return nil, fmt.Errorf("gmm: diagonal model has covariance %d entry (%d,%d) = %v, want 0", k, i/in.D, i%in.D, v)
			}
		}
		m.Covs = append(m.Covs, linalg.NewDenseData(in.D, in.D, in.Covs[k]))
	}
	return m, nil
}
