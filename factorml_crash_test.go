package factorml

// Crash-recovery property harness for the durability layer: a "victim"
// run with the write-ahead log enabled is abandoned mid-flight (no
// Close — the on-disk state is exactly what a kill -9 leaves behind),
// and the harness then proves the headline guarantee at every cut
// point:
//
//   - kill at ANY WAL byte offset: truncate a copy of the victim's
//     directory at that offset, reboot, re-issue exactly the operations
//     the surviving log had not recorded, and the refreshed GMM and NN
//     models are BIT-IDENTICAL (zero tolerance) to an unkilled
//     reference run — for every NumWorkers value;
//   - flip one bit in any non-final CRC frame: boot fails loudly with a
//     *wal.CorruptError naming the damaged segment and byte offset;
//   - flip one bit in the final frame: indistinguishable from a torn
//     tail, so the record is discarded, recovery succeeds, and
//     re-issuing the lost tail converges to the same bits.
//
// The workload is deterministic from a printed seed; rerun one case
// with FACTORML_WAL_SEED=<seed>. FACTORML_WAL_COUNT overrides the op
// count and FACTORML_WAL_STRIDE=1 forces exhaustive per-byte coverage.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factorml/internal/wal"
)

// crashDurability opens the victim/recovery database durable: NoSync
// because the harness simulates crashes by copying files, not by
// losing power; no automatic checkpoints so every WAL byte offset is a
// reachable crash state.
func crashDurability() OpenOption {
	return withWAL(DurabilityConfig{SnapshotEvery: 0}, wal.Options{NoSync: true, SegmentBytes: 1 << 10})
}

// withWAL is WithDurability(cfg) with the write-ahead log options that
// DurabilityConfig does not expose: NoSync and the segment size. cfg's
// FsyncEvery still applies.
func withWAL(cfg DurabilityConfig, opts wal.Options) OpenOption {
	return func(o *openConfig) {
		WithDurability(cfg)(o)
		o.wal = opts
	}
}

func crashPolicy(workers int) StreamPolicy {
	return StreamPolicy{RefreshRows: 7, RebaselineEvery: 3, NumWorkers: workers}
}

// crashWorkload is one deterministic run: fixed base schema content
// plus a generated op sequence.
type crashWorkload struct {
	seed     int64
	dimRows  [][]float64 // items rid = index
	factRows []crashFactRow
	ops      []crashOp
}

type crashFactRow struct {
	fk     int64
	feat   float64
	target float64
}

// crashOp is one logged operation: an explicit refresh or a change
// batch. (The two model attaches are implicit ops 0 and 1 of every
// run.)
type crashOp struct {
	refresh bool
	batch   StreamBatch
}

// crashAttachOps is how many WAL records precede ops[0]: the GMM and
// NN attach records.
const crashAttachOps = 2

func genCrashWorkload(seed int64, nOps int) *crashWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &crashWorkload{seed: seed}
	for i := 0; i < 8; i++ {
		w.dimRows = append(w.dimRows, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	for i := 0; i < 48; i++ {
		w.factRows = append(w.factRows, crashFactRow{
			fk:     int64(rng.Intn(len(w.dimRows))),
			feat:   rng.NormFloat64(),
			target: rng.NormFloat64(),
		})
	}
	rids := make([]int64, len(w.dimRows))
	for i := range rids {
		rids[i] = int64(i)
	}
	nextRID, nextSID := int64(100), int64(1000)
	for i := 0; i < nOps; i++ {
		if rng.Intn(4) == 0 {
			w.ops = append(w.ops, crashOp{refresh: true})
			continue
		}
		var b StreamBatch
		if rng.Intn(3) == 0 {
			rid := nextRID
			if rng.Intn(2) == 0 { // in-place update of an existing tuple
				rid = rids[rng.Intn(len(rids))]
			} else {
				nextRID++
				rids = append(rids, rid)
			}
			b.Dims = append(b.Dims, DimUpdate{
				Table:    "items",
				RID:      rid,
				Features: []float64{rng.NormFloat64(), rng.NormFloat64()},
			})
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			b.Facts = append(b.Facts, FactRow{
				SID:      nextSID,
				FKs:      []int64{rids[rng.Intn(len(rids))]},
				Features: []float64{rng.NormFloat64()},
				Target:   rng.NormFloat64(),
			})
			nextSID++
		}
		w.ops = append(w.ops, crashOp{batch: b})
	}
	return w
}

// buildCrashBase creates the schema, loads the base rows, trains and
// saves the two models, and opens the stream with both attached (WAL
// records 1 and 2 on a durable database).
func buildCrashBase(t *testing.T, db *DB, w *crashWorkload, workers int) *Stream {
	t.Helper()
	items, err := db.CreateDimensionTable("items", []string{"price", "size"})
	if err != nil {
		t.Fatal(err)
	}
	for i, feats := range w.dimRows {
		if err := items.Append(int64(i), feats); err != nil {
			t.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount"}, true, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range w.factRows {
		if err := orders.Append(int64(i), []int64{fr.fk}, []float64{fr.feat}, fr.target); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(orders)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := TrainGMM(ds, Factorized, GMMConfig{K: 2, MaxIter: 2, Tol: 1e-300, NumWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveGMM("g", gres.Model); err != nil {
		t.Fatal(err)
	}
	nres, err := TrainNN(ds, Factorized, NNConfig{Hidden: []int{4}, Epochs: 1, NumWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SaveNN("n", nres.Net); err != nil {
		t.Fatal(err)
	}
	st, err := db.NewStream(orders, crashPolicy(workers))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AttachGMM("g", gres.Model); err != nil {
		t.Fatal(err)
	}
	if err := st.AttachNN("n", nres.Net); err != nil {
		t.Fatal(err)
	}
	return st
}

func applyCrashOps(t *testing.T, st *Stream, ops []crashOp) {
	t.Helper()
	for i, op := range ops {
		if op.refresh {
			if _, err := st.Refresh(); err != nil {
				t.Fatalf("op %d (refresh): %v", i, err)
			}
			continue
		}
		if _, err := st.Ingest(op.batch); err != nil {
			t.Fatalf("op %d (batch): %v", i, err)
		}
	}
}

// crashModelBytes serializes both refreshed models after a final
// refresh; byte equality of the output is bit equality of every
// parameter.
func crashModelBytes(t *testing.T, st *Stream) (gmmB, nnB []byte) {
	t.Helper()
	if _, err := st.Refresh(); err != nil {
		t.Fatal(err)
	}
	gm, err := st.GMM("g")
	if err != nil {
		t.Fatal(err)
	}
	var gb bytes.Buffer
	if err := gm.Save(&gb); err != nil {
		t.Fatal(err)
	}
	net, err := st.NN("n")
	if err != nil {
		t.Fatal(err)
	}
	var nb bytes.Buffer
	if err := net.Save(&nb); err != nil {
		t.Fatal(err)
	}
	return gb.Bytes(), nb.Bytes()
}

// runCrashReference runs the whole workload with a clean close and
// returns the final model bytes — the bits every recovery must hit.
func runCrashReference(t *testing.T, w *crashWorkload, workers int, durable bool) (gmmB, nnB []byte) {
	t.Helper()
	var extra []OpenOption
	if durable {
		extra = append(extra, crashDurability())
	}
	db, err := Open(t.TempDir(), Options{NumWorkers: workers}, extra...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := buildCrashBase(t, db, w, workers)
	applyCrashOps(t, st, w.ops)
	return crashModelBytes(t, st)
}

// runCrashVictim runs the workload on a durable database and abandons
// it without Close: dir then holds exactly what a kill -9 leaves.
func runCrashVictim(t *testing.T, w *crashWorkload, workers int) (dir string) {
	t.Helper()
	dir = t.TempDir()
	db, err := Open(dir, Options{NumWorkers: workers}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	st := buildCrashBase(t, db, w, workers)
	applyCrashOps(t, st, w.ops)
	return dir
}

// recoverAndFinish reboots a crashed directory, lets the stream replay
// the surviving WAL tail, re-issues every operation the log had not
// recorded, and returns the final model bytes.
func recoverAndFinish(t *testing.T, dir string, w *crashWorkload, workers int) (gmmB, nnB []byte, k int64) {
	t.Helper()
	db, err := Open(dir, Options{NumWorkers: workers}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k = db.WALStats().LastLSN
	orders, err := db.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.NewStream(orders, crashPolicy(workers))
	if err != nil {
		t.Fatal(err)
	}
	// Re-issue what the surviving log had not recorded: the attaches
	// (records 1 and 2) from the registry's saved parameters, then the
	// lost ops. Recovery replays everything at or below LSN k, so
	// replayed models are already in Attached().
	if k < 1 {
		gm, err := db.LoadGMM("g")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AttachGMM("g", gm); err != nil {
			t.Fatal(err)
		}
	}
	if k < 2 {
		net, err := db.LoadNN("n")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AttachNN("n", net); err != nil {
			t.Fatal(err)
		}
	}
	first := int(k) - crashAttachOps
	if first < 0 {
		first = 0
	}
	applyCrashOps(t, st, w.ops[first:])
	gmmB, nnB = crashModelBytes(t, st)
	return gmmB, nnB, k
}

// --- WAL file surgery ------------------------------------------------------

type walFrame struct {
	seg       string // segment path relative to the WAL dir
	off       int64  // frame offset within the segment
	globalOff int64  // offset across all segments in LSN order
	size      int64
	final     bool // last frame of the last segment
}

// readWALLayout parses the victim's segment files into frame
// boundaries.
func readWALLayout(t *testing.T, walDir string) (frames []walFrame, segSizes map[string]int64, total int64) {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	// Segment names are zero-padded hex first-LSNs: lexical order is
	// LSN order.
	for i := 1; i < len(segs); i++ {
		if segs[i] < segs[i-1] {
			t.Fatalf("segments out of order: %v", segs)
		}
	}
	segSizes = make(map[string]int64)
	for _, seg := range segs {
		buf, err := os.ReadFile(filepath.Join(walDir, seg))
		if err != nil {
			t.Fatal(err)
		}
		segSizes[seg] = int64(len(buf))
		off := 0
		for off < len(buf) {
			if len(buf)-off < 8 {
				t.Fatalf("segment %s: trailing %d bytes", seg, len(buf)-off)
			}
			plen := int(binary.LittleEndian.Uint32(buf[off:]))
			size := int64(8 + plen)
			frames = append(frames, walFrame{
				seg: seg, off: int64(off), globalOff: total, size: size,
			})
			off += 8 + plen
			total += size
		}
	}
	if len(frames) > 0 {
		frames[len(frames)-1].final = true
	}
	return frames, segSizes, total
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// truncateWALAt cuts the copied WAL at a global byte offset: the
// containing segment is truncated and every later segment removed,
// exactly the prefix a crash at that write position leaves.
func truncateWALAt(t *testing.T, walDir string, segSizes map[string]int64, globalOff int64) {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	pos := int64(0)
	for _, seg := range segs {
		size := segSizes[seg]
		path := filepath.Join(walDir, seg)
		switch {
		case globalOff <= pos:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		case globalOff < pos+size:
			if err := os.Truncate(path, globalOff-pos); err != nil {
				t.Fatal(err)
			}
		}
		pos += size
	}
}

func crashEnvInt(name string, def int64) int64 {
	return equivEnvInt(name, def) // same env idiom as the equivalence harness
}

// TestKillAtAnyWALOffset is the headline crash-safety property: for a
// sweep of WAL byte offsets (every frame boundary and its neighbors,
// plus a stride over the interior; FACTORML_WAL_STRIDE=1 makes it every
// byte), truncating the victim's log at that offset and recovering
// converges to models bit-identical to the unkilled run.
func TestKillAtAnyWALOffset(t *testing.T) {
	seed := crashEnvInt("FACTORML_WAL_SEED", 20260807)
	nOps := int(crashEnvInt("FACTORML_WAL_COUNT", 12))
	t.Logf("seed=%d ops=%d (override with FACTORML_WAL_SEED / FACTORML_WAL_COUNT)", seed, nOps)
	w := genCrashWorkload(seed, nOps)

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			refGMM, refNN := runCrashReference(t, w, workers, true)

			// WAL-off control: durability must not change what the
			// stream computes.
			offGMM, offNN := runCrashReference(t, w, workers, false)
			if !bytes.Equal(refGMM, offGMM) || !bytes.Equal(refNN, offNN) {
				t.Fatal("WAL-on and WAL-off runs diverged")
			}

			victim := runCrashVictim(t, w, workers)
			walDir := filepath.Join(victim, "wal")
			frames, segSizes, total := readWALLayout(t, walDir)
			if len(frames) < nOps {
				t.Fatalf("victim WAL has %d frames for %d ops", len(frames), nOps)
			}

			stride := crashEnvInt("FACTORML_WAL_STRIDE", 0)
			if stride <= 0 {
				stride = total/96 + 1
				if testing.Short() {
					stride = total/16 + 1
				}
			}
			offsets := map[int64]bool{0: true, total: true}
			for _, fr := range frames {
				for d := int64(-1); d <= 1; d++ {
					if o := fr.globalOff + d; o >= 0 && o <= total {
						offsets[o] = true
					}
				}
			}
			for o := int64(0); o <= total; o += stride {
				offsets[o] = true
			}
			tested := 0
			for off := range offsets {
				clone := t.TempDir()
				copyTree(t, victim, clone)
				truncateWALAt(t, filepath.Join(clone, "wal"), segSizes, off)
				gmmB, nnB, k := recoverAndFinish(t, clone, w, workers)
				if !bytes.Equal(gmmB, refGMM) {
					t.Fatalf("offset %d (recovered to LSN %d): GMM diverged from the unkilled run", off, k)
				}
				if !bytes.Equal(nnB, refNN) {
					t.Fatalf("offset %d (recovered to LSN %d): NN diverged from the unkilled run", off, k)
				}
				tested++
			}
			t.Logf("workers=%d: %d offsets over %d WAL bytes (%d frames), all bit-identical", workers, tested, total, len(frames))
		})
	}
}

// TestWALBitFlipRecovery flips one bit in every CRC frame of the
// victim's log: damage in a non-final frame must fail the boot with a
// *wal.CorruptError naming the segment and offset (valid records
// behind the damage prove it is rot, not a crash), while damage in the
// final frame is indistinguishable from a torn tail — the record is
// discarded and recovery converges after re-issuing it.
func TestWALBitFlipRecovery(t *testing.T) {
	seed := crashEnvInt("FACTORML_WAL_SEED", 20260807)
	nOps := int(crashEnvInt("FACTORML_WAL_COUNT", 12))
	const workers = 1
	w := genCrashWorkload(seed, nOps)
	refGMM, refNN := runCrashReference(t, w, workers, true)
	victim := runCrashVictim(t, w, workers)
	frames, _, _ := readWALLayout(t, filepath.Join(victim, "wal"))

	for i, fr := range frames {
		clone := t.TempDir()
		copyTree(t, victim, clone)
		segPath := filepath.Join(clone, "wal", fr.seg)
		f, err := os.OpenFile(segPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one bit in the middle of the frame (payload for any
		// frame big enough to have one).
		pos := fr.off + fr.size/2
		var b [1]byte
		if _, err := f.ReadAt(b[:], pos); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x08
		if _, err := f.WriteAt(b[:], pos); err != nil {
			t.Fatal(err)
		}
		f.Close()

		if fr.final {
			gmmB, nnB, k := recoverAndFinish(t, clone, w, workers)
			if int(k) != len(frames)-1 {
				t.Fatalf("frame %d (final): recovered to LSN %d, want %d (flipped record discarded as torn)", i, k, len(frames)-1)
			}
			if !bytes.Equal(gmmB, refGMM) || !bytes.Equal(nnB, refNN) {
				t.Fatalf("frame %d (final): models diverged after torn-tail recovery", i)
			}
			continue
		}
		_, err = Open(clone, Options{NumWorkers: workers}, crashDurability())
		var ce *wal.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("frame %d: open after bit flip = %v, want *wal.CorruptError", i, err)
		}
		if ce.Segment != segPath {
			t.Fatalf("frame %d: corruption reported in %s, flipped %s", i, ce.Segment, segPath)
		}
		if ce.Offset != fr.off {
			t.Fatalf("frame %d: corruption reported at offset %d, flipped frame starts at %d", i, ce.Offset, fr.off)
		}
	}
}
