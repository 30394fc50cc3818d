package stream

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"factorml/internal/join"
	"factorml/internal/nn"
	"factorml/internal/serve"
	"factorml/internal/storage"
)

// TestRefreshRejectsNonFiniteModel: a finite but extreme fact feature
// (1e308, which validation admits) overflows the refreshed parameters. The
// refresh must fail typed, naming model, component or layer and parameter,
// and leave the previous model — and, with a registry, its version — in
// place: with no registry and with one, on an explicit refresh and on the
// automatic refresh an ingest triggers.
func TestRefreshRejectsNonFiniteModel(t *testing.T) {
	saved := func(t *testing.T, s *Stream) []byte {
		m, _ := s.GMM("g")
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name           string
		registry, auto bool
	}{
		{"no registry", false, false},
		{"registry, explicit refresh", true, false},
		{"registry, auto refresh", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := Policy{NumWorkers: 1}
			if tc.auto {
				pol.RefreshRows = 5
			}
			var (
				spec *join.Spec
				reg  *serve.Registry
				s    *Stream
			)
			if tc.registry {
				_, spec, reg, _, _, s = serveFixture(t, pol)
			} else {
				var db *storage.Database
				db, spec, _ = genStar(t, 300, []int{12}, 3, []int{2}, 19)
				var err error
				if s, err = New(db, spec, Options{Policy: pol}); err != nil {
					t.Fatal(err)
				}
				if err := s.AttachGMM("g", trainBase(t, db, spec, 2)); err != nil {
					t.Fatal(err)
				}
			}
			var version int
			if reg != nil {
				info, _ := reg.Get("g")
				version = info.Version
			}
			before := saved(t, s)

			b := deltaBatch(t, spec, s.idxs, 5, 7)
			b.Facts[2].Features[0] = 1e308
			_, err := s.Ingest(b)
			if !tc.auto {
				if err != nil {
					t.Fatal(err)
				}
				_, err = s.Refresh()
			}
			if !isNonFiniteModel(err) || !strings.Contains(err.Error(), `model "g"`) || !strings.Contains(err.Error(), "component ") {
				t.Fatalf("refresh error %v, want a NonFiniteModelError naming the model and a component", err)
			}
			if reg != nil {
				if got, _ := reg.Get("g"); got.Version != version {
					t.Fatalf("registry version %d → %d after a rejected refresh", version, got.Version)
				}
			}
			if !bytes.Equal(saved(t, s), before) {
				t.Fatal("a rejected refresh replaced the model")
			}
		})
	}
}

// TestCheckFiniteNN names the first non-finite weight or bias of a
// network, and passes a finite one.
func TestCheckFiniteNN(t *testing.T) {
	net, err := nn.NewNetwork([]int{3, 4, 1}, nn.Sigmoid, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFiniteNN("n", net); err != nil {
		t.Fatal(err)
	}
	net.B[1][0] = math.Inf(-1)
	if err := checkFiniteNN("n", net); !isNonFiniteModel(err) || !strings.Contains(err.Error(), "layer 1 bias[0] = -Inf") {
		t.Fatalf("checkFiniteNN = %v", err)
	}
	net.W[0].Data()[5] = math.NaN()
	if err := checkFiniteNN("n", net); !isNonFiniteModel(err) || !strings.Contains(err.Error(), "layer 0 weight (1,2) = NaN") {
		t.Fatalf("checkFiniteNN = %v", err)
	}
}

// isNonFiniteModel reports whether err is a refresh rejected for a
// non-finite parameter.
func isNonFiniteModel(err error) bool {
	var ne *NonFiniteModelError
	return errors.As(err, &ne)
}
