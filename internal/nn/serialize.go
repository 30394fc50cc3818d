package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"factorml/internal/linalg"
)

// networkJSON is the stable on-disk representation of a trained network.
type networkJSON struct {
	Version int         `json:"version"`
	Sizes   []int       `json:"sizes"`
	Act     int         `json:"activation"`
	W       [][]float64 `json:"weights"` // row-major Sizes[l+1]×Sizes[l]
	B       [][]float64 `json:"biases"`
}

const networkVersion = 1

// Save writes the network as JSON.
func (n *Network) Save(w io.Writer) error {
	out := networkJSON{Version: networkVersion, Sizes: n.Sizes, Act: int(n.Act), B: n.B}
	for _, wm := range n.W {
		out.W = append(out.W, wm.Data())
	}
	return json.NewEncoder(w).Encode(out)
}

// LoadNetwork reads a network written by Save, validating its shape.
func LoadNetwork(r io.Reader) (*Network, error) {
	var in networkJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	if in.Version != networkVersion {
		return nil, fmt.Errorf("nn: unsupported network version %d", in.Version)
	}
	if len(in.Sizes) < 2 {
		return nil, fmt.Errorf("nn: serialized network has %d layer sizes", len(in.Sizes))
	}
	layers := len(in.Sizes) - 1
	if len(in.W) != layers || len(in.B) != layers {
		return nil, fmt.Errorf("nn: layer count mismatch: sizes imply %d, got %d/%d", layers, len(in.W), len(in.B))
	}
	if in.Act < int(Sigmoid) || in.Act > int(Identity) {
		return nil, fmt.Errorf("nn: unknown activation code %d", in.Act)
	}
	net := &Network{Sizes: in.Sizes, Act: Activation(in.Act), B: in.B}
	for l := 0; l < layers; l++ {
		rows, cols := in.Sizes[l+1], in.Sizes[l]
		if rows < 1 || cols < 1 || rows > math.MaxInt/cols {
			return nil, fmt.Errorf("nn: layer %d is %d×%d, want positive sizes whose product fits an int", l, rows, cols)
		}
		if len(in.W[l]) != rows*cols {
			return nil, fmt.Errorf("nn: layer %d weights have %d entries, want %d", l, len(in.W[l]), rows*cols)
		}
		if len(in.B[l]) != rows {
			return nil, fmt.Errorf("nn: layer %d biases have %d entries, want %d", l, len(in.B[l]), rows)
		}
		net.W = append(net.W, linalg.NewDenseData(rows, cols, in.W[l]))
	}
	return net, nil
}
