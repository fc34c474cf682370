package sim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"collabnet/internal/codec"
)

// TestSnapshotCodecRoundTripBitIdentical pins the persistence acceptance
// bar: for every scheme kind, encoding a full engine snapshot and decoding
// it into a fresh container reproduces every field bit-identically
// (reflect.DeepEqual over the whole struct, floats included).
func TestSnapshotCodecRoundTripBitIdentical(t *testing.T) {
	for _, kind := range allSchemeKinds {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := snapshotTestConfig(kind)
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 90; i++ {
				eng.StepOnce(1, true)
			}
			snap := eng.Snapshot(nil)

			got, err := snapshotRoundTrip(t, snap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, got) {
				t.Fatal("decoded snapshot differs from the original")
			}

			// An engine restored from the decoded snapshot must continue
			// bit-identically to one restored from the in-memory snapshot.
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.RestoreFrom(snap); err != nil {
				t.Fatal(err)
			}
			if err := b.RestoreFrom(got); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				a.StepOnce(1, true)
				b.StepOnce(1, true)
			}
			if !reflect.DeepEqual(a.Snapshot(nil), b.Snapshot(nil)) {
				t.Fatal("engines diverged after restoring the decoded snapshot")
			}
		})
	}
}

// snapshotRoundTrip writes snap alone in the codec envelope and decodes it
// into a fresh container.
func snapshotRoundTrip(t *testing.T, snap *EngineSnapshot) (*EngineSnapshot, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := codec.WriteFile(path, ckptMagic, ckptVersion, snap.encode); err != nil {
		t.Fatal(err)
	}
	got := &EngineSnapshot{}
	return got, codec.ReadFile(path, ckptMagic, ckptVersion, got.decode)
}

// TestSnapshotFileRoundTrip round-trips a full-state snapshot through the
// chain checkpoint file, the one file an engine snapshot is persisted in,
// into a parent directory that does not exist yet.
func TestSnapshotFileRoundTrip(t *testing.T) {
	cfg := snapshotTestConfig(allSchemeKinds[4])
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		eng.StepOnce(1, true)
	}
	dir := filepath.Join(t.TempDir(), "sub")
	c := &chainCheckpoint{Name: "file round trip"}
	eng.Snapshot(&c.Snap)
	if err := writeChainCheckpoint(dir, c); err != nil {
		t.Fatal(err)
	}
	got, ok := loadChainCheckpoint(dir, c.Name, 1)
	if !ok {
		t.Fatal("checkpoint did not load")
	}
	if !reflect.DeepEqual(&c.Snap, &got.Snap) {
		t.Fatal("file round trip differs")
	}
}

func TestSnapshotCodecRejectsGarbage(t *testing.T) {
	for name, body := range map[string][]byte{
		"garbage":   []byte("not a snapshot at all"),
		"empty":     nil,
		"truncated": make([]byte, 7*8), // step, RNG and online set, then nothing
	} {
		if _, err := snapshotDecode(t, body); err == nil {
			t.Errorf("%s body should not decode", name)
		}
	}
	if _, ok := loadChainCheckpoint(t.TempDir(), "missing", 1); ok {
		t.Error("missing checkpoint should not load")
	}
}

// snapshotDecode seals body in a valid envelope and decodes it as an
// engine snapshot, so the body decoder sees every byte.
func snapshotDecode(t *testing.T, body []byte) (*EngineSnapshot, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := os.WriteFile(path, sealFile(ckptMagic, ckptVersion, body), 0o644); err != nil {
		t.Fatal(err)
	}
	got := &EngineSnapshot{}
	return got, codec.ReadFile(path, ckptMagic, ckptVersion, got.decode)
}

// sealFile builds a file image in the codec envelope around raw body bytes:
// magic, version word, body, CRC32C trailer.
func sealFile(magic string, version uint64, body []byte) []byte {
	b := binary.LittleEndian.AppendUint64([]byte(magic), version)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// hugeAgentsBody is the body of a 72-byte version-2 engine snapshot (8
// bytes of magic and 8 of version before it) that claims 2^31 agents: step,
// RNG state, an empty online set, the agent count, and nothing behind it.
// A decoder that allocates before bounding the count asks for 395 GB here,
// which ends the process with an unrecoverable out-of-memory error.
func hugeAgentsBody() []byte {
	var b []byte
	for _, w := range []uint64{100, 1, 2, 3, 4, 0, 1 << 31} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// allocated reports the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotDecodeBoundsCountsByInput pins the decoder's allocation
// bound: a count larger than the bytes behind it is an error, found before
// anything is allocated for it — also when the snapshot arrives inside a
// chain checkpoint, which then degrades to a cold start.
func TestSnapshotDecodeBoundsCountsByInput(t *testing.T) {
	const limit = 1 << 20
	var err error
	if n := allocated(func() { _, err = snapshotDecode(t, hugeAgentsBody()) }); n > limit {
		t.Errorf("decoding the 2^31-agent snapshot allocated %d bytes", n)
	}
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("2^31-agent snapshot: got %v, want a count-bound error", err)
	}

	dir := t.TempDir()
	name := "hostile"
	err = codec.WriteFile(checkpointPath(dir, name), ckptMagic, ckptVersion, func(e *codec.Encoder) error {
		e.Text(name)
		e.Int(0) // no completed results
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Splice the hostile snapshot body in front of the trailer and reseal.
	path := checkpointPath(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := append(data[len(ckptMagic)+8:len(data)-4], hugeAgentsBody()...)
	if err := os.WriteFile(path, sealFile(ckptMagic, ckptVersion, body), 0o644); err != nil {
		t.Fatal(err)
	}
	var ok bool
	if n := allocated(func() { _, ok = loadChainCheckpoint(dir, name, 2) }); n > limit {
		t.Errorf("loading the hostile checkpoint allocated %d bytes", n)
	}
	if ok {
		t.Error("hostile checkpoint should degrade to a cold start")
	}
}

// TestChainCheckpointRejectsFlippedByte pins the checksum: one flipped bit
// anywhere in a valid checkpoint's body, and an older format version, both
// make the checkpoint unusable.
func TestChainCheckpointRejectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	c := checkpointChain(2)
	if cr := runChain(c, ChainOptions{WarmStart: true, CheckpointDir: dir}); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	path := checkpointPath(dir, c.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loadChainCheckpoint(dir, c.Name, 2); !ok {
		t.Fatal("valid checkpoint did not load")
	}
	for _, off := range []int{len(ckptMagic) + 8, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		err := codec.ReadFile(path, ckptMagic, ckptVersion, (&chainCheckpoint{}).decode)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("flip at byte %d: got %v, want a checksum error", off, err)
		}
		if _, ok := loadChainCheckpoint(dir, c.Name, 2); ok {
			t.Errorf("flip at byte %d: corrupt checkpoint loaded", off)
		}
	}
	old := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(old[len(ckptMagic):], ckptVersion-1)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	err = codec.ReadFile(path, ckptMagic, ckptVersion, (&chainCheckpoint{}).decode)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", ckptVersion-1)) {
		t.Errorf("old version: got %v, want an error naming version %d", err, ckptVersion-1)
	}
}

// checkpointChain builds a deterministic little warm-start sweep chain.
func checkpointChain(points int) SweepChain {
	c := SweepChain{Name: "ckpt chain/0"}
	for p := 0; p < points; p++ {
		cfg := Quick()
		cfg.Peers = 20
		cfg.TrainSteps = 120
		cfg.MeasureSteps = 60
		cfg.SeedArticles = 6
		cfg.Seed = 77
		cfg.Mix = Mixture{Rational: 1 - float64(p)*0.1, Altruistic: float64(p) * 0.1}
		c.Points = append(c.Points, Job{Name: fmt.Sprintf("p%d", p), Config: cfg})
	}
	return c
}

// TestChainCheckpointResumeBitIdentical is the resume determinism pin: a
// chain interrupted after k points and resumed from its checkpoint file (in
// a fresh process, modeled by a fresh RunChains call) produces exactly the
// results of an uninterrupted run.
func TestChainCheckpointResumeBitIdentical(t *testing.T) {
	const points = 3
	opt := ChainOptions{WarmStart: true}
	full := runChain(checkpointChain(points), opt)
	if full.Err != nil {
		t.Fatal(full.Err)
	}

	dir := t.TempDir()
	opt.CheckpointDir = dir
	// "Interrupted" run: the same chain truncated to its first two points —
	// exactly the state a killed process leaves behind in the checkpoint.
	prefix := checkpointChain(points)
	prefix.Points = prefix.Points[:2]
	if cr := runChain(prefix, opt); cr.Err != nil {
		t.Fatal(cr.Err)
	}
	// Resumed run: loads the checkpoint, skips the two completed points.
	resumed := runChain(checkpointChain(points), opt)
	if resumed.Err != nil {
		t.Fatal(resumed.Err)
	}
	if !reflect.DeepEqual(full.Results, resumed.Results) {
		t.Fatal("resumed chain results differ from the uninterrupted run")
	}
	// Completed chains resume to their stored results without re-running.
	again := runChain(checkpointChain(points), opt)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if !reflect.DeepEqual(full.Results, again.Results) {
		t.Fatal("re-resumed chain results differ")
	}
}

// TestChainCheckpointThroughRunChains exercises the public path end to end:
// RunChains with a CheckpointDir equals RunChains without one, both cold
// and warm, and stale checkpoints from a different chain name are ignored.
func TestChainCheckpointThroughRunChains(t *testing.T) {
	mk := func(name string) []SweepChain {
		c := checkpointChain(2)
		c.Name = name
		return []SweepChain{c}
	}
	for _, warm := range []bool{false, true} {
		dir := t.TempDir()
		ref := RunChains(mk("a"), ChainOptions{WarmStart: warm}, 1)
		got := RunChains(mk("a"), ChainOptions{WarmStart: warm, CheckpointDir: dir}, 1)
		if ref[0].Err != nil || got[0].Err != nil {
			t.Fatal(ref[0].Err, got[0].Err)
		}
		if !reflect.DeepEqual(ref[0].Results, got[0].Results) {
			t.Fatalf("warm=%v: checkpointed run differs", warm)
		}
		// A different chain name must not pick up the existing file.
		other := RunChains(mk("b"), ChainOptions{WarmStart: warm, CheckpointDir: dir}, 1)
		if other[0].Err != nil {
			t.Fatal(other[0].Err)
		}
		if !reflect.DeepEqual(ref[0].Results, other[0].Results) {
			t.Fatalf("warm=%v: fresh chain under a new name differs", warm)
		}
	}
}

func TestChainCheckpointIgnoresCorruptFile(t *testing.T) {
	dir := t.TempDir()
	c := checkpointChain(2)
	// Pre-plant garbage where the checkpoint would live.
	if err := os.WriteFile(checkpointPath(dir, c.Name), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := ChainOptions{WarmStart: true, CheckpointDir: dir}
	got := runChain(c, opt)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want := runChain(checkpointChain(2), ChainOptions{WarmStart: true})
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatal("corrupt checkpoint changed the results")
	}
}
