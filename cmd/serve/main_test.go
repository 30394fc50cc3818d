package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"factorml"
)

// parseArgs runs a command line through the flag definitions and
// validateFlags, as main does.
func parseArgs(args ...string) (serveFlags, error) {
	var o serveFlags
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs, &o)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, validateFlags(&o)
}

// TestValidateFlags pins the usage errors byte for byte: main prints them
// after "serve: " and scripts/load_smoke.sh greps for them.
func TestValidateFlags(t *testing.T) {
	base := []string{"-db", "d", "-dims", "synth_R1"}
	cases := []struct {
		name string
		args []string // appended to base unless bare
		bare bool
		want string // the whole error; "" means accepted
	}{
		{name: "minimal", want: ""},
		{name: "streaming", args: []string{"-fact", "synth_S", "-refresh-rows", "25", "-rebaseline-every", "3"}},
		{name: "batching", args: []string{"-batch-window", "1ms", "-max-batch", "64"}},
		{name: "durable", args: []string{"-fact", "synth_S", "-wal-dir", "w", "-fsync-every", "8", "-snapshot-every", "0"}},
		{name: "log level", args: []string{"-log-level", "warn"}},
		{name: "no flags", bare: true, want: "-db and -dims are required"},
		{name: "no dims", bare: true, args: []string{"-db", "d"}, want: "-db and -dims are required"},
		{name: "no db", bare: true, args: []string{"-dims", "synth_R1"}, want: "-db and -dims are required"},
		{name: "workers", args: []string{"-workers", "-2"}, want: "-workers must be >= 0, got -2"},
		{name: "cache", args: []string{"-cache", "-1"}, want: "-cache must be >= 0"},
		{name: "refresh rows negative", args: []string{"-fact", "synth_S", "-refresh-rows", "-1"},
			want: "-refresh-rows and -rebaseline-every must be >= 0"},
		{name: "refresh-rows without fact", args: []string{"-refresh-rows", "10"},
			want: "-refresh-rows/-rebaseline-every need -fact (streaming ingestion)"},
		{name: "rebaseline without fact", args: []string{"-rebaseline-every", "2"},
			want: "-refresh-rows/-rebaseline-every need -fact (streaming ingestion)"},
		{name: "inflight", args: []string{"-max-inflight", "-1"}, want: "-max-inflight and -max-ingest-queue must be >= 0"},
		{name: "window negative", args: []string{"-batch-window", "-1ms"}, want: "-batch-window and -max-batch must be >= 0"},
		{name: "max-batch without window", args: []string{"-max-batch", "64"}, want: "-max-batch needs -batch-window (dynamic batching)"},
		{name: "trace sample", args: []string{"-trace-sample", "0"}, want: "-trace-sample must be in (0, 1], got 0"},
		{name: "trace slow", args: []string{"-trace-slow-ms", "-5"}, want: "-trace-slow-ms must be >= 0, got -5"},
		{name: "drift order", args: []string{"-drift-warn", "0.5"}, want: "-drift-warn and -drift-psi must be > 0 with -drift-warn <= -drift-psi, got 0.5 / 0.25"},
		{name: "staleness", args: []string{"-staleness-max-rows", "-1"}, want: "-staleness-max-rows must be >= 0, got -1"},
		{name: "health sample", args: []string{"-health-sample", "1.5"}, want: "-health-sample must be in (0, 1], got 1.5"},
		{name: "fsync negative", args: []string{"-wal-dir", "w", "-fsync-every", "-1"}, want: "-fsync-every and -snapshot-every must be >= 0"},
		{name: "fsync without wal", args: []string{"-fsync-every", "4"}, want: "-fsync-every/-snapshot-every need -wal-dir (durability)"},
		{name: "snapshot without wal", args: []string{"-snapshot-every", "500"}, want: "-fsync-every/-snapshot-every need -wal-dir (durability)"},
	}
	for _, tc := range cases {
		args := tc.args
		if !tc.bare {
			args = append(append([]string{}, base...), tc.args...)
		}
		_, err := parseArgs(args...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := parseArgs(append(base, "-log-level", "loud")...); err == nil {
		t.Error("-log-level loud accepted")
	}
}

// unsetFlagOK lists the flags no script or CI step sets, each with its
// reason. Everything else TestEveryServeFlagHasACaller checks must be set
// by one.
var unsetFlagOK = map[string]string{
	"trace-sample":     "the one lever on tracing cost: an operator samples below 1 to trim it",
	"rebaseline-every": "benchmark/env.go sets StreamPolicy.RebaselineEvery to a different value per workload",
	"snapshot-every":   "benchmark/env.go sets DurabilityConfig.SnapshotEvery to a different value per workload",
}

// TestEveryServeFlagHasACaller fails when a flag of the command is set
// by no smoke script (scripts/*.sh) and no CI step (.github/workflows/
// ci.yml), as a whole token followed by a space or "=", and is not on
// unsetFlagOK. A flag nothing sets is a second behaviour nothing runs;
// its value belongs in a constant.
func TestEveryServeFlagHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scripts under %s (%v)", root, err)
	}
	var callers []byte
	for _, f := range append(files, filepath.Join(root, ".github", "workflows", "ci.yml")) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		callers = append(append(callers, b...), '\n')
	}
	if len(unsetFlagOK) > 3 {
		t.Errorf("unsetFlagOK holds %d flags; at most 3 may go without a caller", len(unsetFlagOK))
	}
	var o serveFlags
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	defineFlags(fs, &o)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		set := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `[ =]`).Match(callers)
		_, ok := unsetFlagOK[f.Name]
		switch {
		case !set && !ok:
			t.Errorf("-%s is set by no script or CI step: make it a constant, or list it in unsetFlagOK with its reason", f.Name)
		case set && ok:
			t.Errorf("-%s is on unsetFlagOK but a script sets it: take it off the list", f.Name)
		}
	})
	t.Logf("%d flags", n)
}

// star is a two-dimension database shaped and named like `datagen -nr 30
// -nr2 12` writes it, with the rows kept so a joined row can be assembled
// by hand.
type star struct {
	dir    string
	r1, r2 [][]float64
	model  *factorml.GMMModel // trained over the catalog's join, saved as "g"
}

func buildStar(t *testing.T) *star {
	t.Helper()
	st := &star{dir: t.TempDir()}
	db, err := factorml.Open(st.dir, factorml.Options{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	vec := func(n int, shift float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = shift + rng.NormFloat64()
		}
		return x
	}
	r1, err := db.CreateDimensionTable("synth_R1", []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		st.r1 = append(st.r1, vec(4, 2))
		if err := r1.Append(int64(i), st.r1[i]); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := db.CreateDimensionTable("synth_R2", []string{"e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		st.r2 = append(st.r2, vec(2, -3))
		if err := r2.Append(int64(i), st.r2[i]); err != nil {
			t.Fatal(err)
		}
	}
	fact, err := db.CreateFactTable("synth_S", []string{"x", "y", "z"}, true, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := fact.Append(int64(i), []int64{int64(rng.Intn(30)), int64(rng.Intn(12))}, vec(3, 0), float64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(fact)
	if err != nil {
		t.Fatal(err)
	}
	res, err := factorml.TrainGMM(ds, factorml.Factorized, factorml.GMMConfig{K: 2, MaxIter: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.model = res.Model
	if err := db.SaveGMM("g", st.model); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// boot starts run on a free port and returns the address it reported
// ready on, or the error it exited with before getting there. The server
// is stopped when the test ends.
func boot(t *testing.T, args ...string) (addr string, err error) {
	t.Helper()
	cfg, err := parseArgs(append(args, "-addr", "127.0.0.1:0", "-workers", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run(cfg, pw, stop)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "factorml-serve ready on "); ok {
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		return "", <-done
	}
	t.Cleanup(func() {
		go io.Copy(io.Discard, pr) //nolint:errcheck // drains the shutdown lines
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Errorf("serve exited with %v", err)
		}
	})
	return addr, nil
}

// TestDimsCheckedAgainstCatalog: with -fact the join served is the one the
// catalog records for the fact table — the join training ran over. A
// permuted -dims used to boot "ready" and probe fk1 into synth_R2 (or die
// on the first key one table happens not to hold); it is now a usage error
// naming the expected list, and the exact list answers what the trained
// model gives for the joined row.
func TestDimsCheckedAgainstCatalog(t *testing.T) {
	st := buildStar(t)
	for _, dims := range []string{"synth_R2,synth_R1", "synth_R1", "synth_R1,synth_Rx"} {
		addr, err := boot(t, "-db", st.dir, "-fact", "synth_S", "-dims", dims)
		if !errors.Is(err, factorml.ErrDimsMismatch) {
			t.Fatalf("-dims %s: booted on %q with error %v, want ErrDimsMismatch (main exits 2 on it)", dims, addr, err)
		}
		if !strings.Contains(err.Error(), "synth_R1,synth_R2") {
			t.Fatalf("-dims %s: the error does not name the expected list: %v", dims, err)
		}
	}

	addr, err := boot(t, "-db", st.dir, "-fact", "synth_S", "-dims", " synth_R1 , synth_R2 ")
	if err != nil {
		t.Fatal(err)
	}
	factX, fks := []float64{0.25, -1, 0.5}, []int64{7, 3}
	body, err := json.Marshal(map[string]any{"rows": []map[string]any{{"fact": factX, "fks": fks}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/models/g/predict", addr), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Predictions []struct {
			LogProb *float64 `json:"log_prob"`
			Error   string   `json:"error"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d, %v: %s", resp.StatusCode, err, raw)
	}
	if len(got.Predictions) != 1 || got.Predictions[0].LogProb == nil {
		t.Fatalf("predict answered %s", raw)
	}

	joined := append(append(append([]float64{}, factX...), st.r1[fks[0]]...), st.r2[fks[1]]...)
	if want := st.model.LogProb(joined); math.Abs(*got.Predictions[0].LogProb-want) > 1e-9 {
		t.Fatalf("served log-prob %v, the trained model gives %v for the joined row", *got.Predictions[0].LogProb, want)
	}
}
