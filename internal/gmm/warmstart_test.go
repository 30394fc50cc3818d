package gmm

import (
	"strings"
	"testing"

	"factorml/internal/factor"
)

// TestWarmStartValidation covers the Config.Init error paths shared by
// every trainer through initModel.
func TestWarmStartValidation(t *testing.T) {
	model := scoreTestModel(t) // K=3, D=6
	pass := func(fn factor.RowFn) error {
		x := make([]float64, 6)
		for i := 0; i < 10; i++ {
			if err := fn(x, 0); err != nil {
				return err
			}
		}
		return nil
	}

	if _, n, err := initModel(pass, 6, Config{K: 3, Init: model}); err != nil || n != 10 {
		t.Fatalf("warm start = n=%d err=%v", n, err)
	}
	got, _, err := initModel(pass, 6, Config{K: 3, Init: model})
	if err != nil {
		t.Fatal(err)
	}
	if got == model {
		t.Fatal("warm start returned the caller's model instead of a clone")
	}
	if d := got.MaxParamDiff(model); d != 0 {
		t.Fatalf("warm-start clone differs by %g", d)
	}

	// The configuration's structure is stamped on the clone: a full model
	// started as a diagonal one keeps its variances and nothing else.
	diag, _, err := initModel(pass, 6, Config{K: 3, Init: model, Diagonal: true})
	if err != nil || !diag.Diagonal || model.Diagonal {
		t.Fatalf("diagonal warm start: %+v, err %v", diag, err)
	}
	for c, cov := range diag.Covs {
		for i, v := range cov.Data() {
			if want := model.Covs[c].Data()[i]; (i/6 == i%6 && v != want) || (i/6 != i%6 && v != 0) {
				t.Fatalf("diagonal warm start: cov[%d](%d,%d) = %v (caller's %v)", c, i/6, i%6, v, want)
			}
		}
	}
	if full, _, _ := initModel(pass, 6, Config{K: 3, Init: diag}); full.Diagonal {
		t.Fatal("a full-covariance config warm-started from a diagonal model stayed diagonal")
	}

	if _, _, err := initModel(pass, 7, Config{K: 3, Init: model}); err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("dimension mismatch accepted: %v", err)
	}
	if _, _, err := initModel(pass, 6, Config{K: 2, Init: model}); err == nil || !strings.Contains(err.Error(), "K=") {
		t.Fatalf("K mismatch accepted: %v", err)
	}
	empty := func(factor.RowFn) error { return nil }
	if _, _, err := initModel(empty, 6, Config{K: 3, Init: model}); err == nil {
		t.Fatal("warm start over an empty dataset accepted")
	}
}
