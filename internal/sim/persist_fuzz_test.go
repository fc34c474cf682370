package sim

import (
	"os"
	"testing"

	"collabnet/internal/codec"
)

// FuzzCheckpointDecode feeds corrupted checkpoints to the chain checkpoint
// decoder. An input picks a valid seed checkpoint, overwrites the bytes at
// off with patch and cuts trim bytes from the end; the result is decoded
// both as it is and resealed with a valid checksum, so corruption also
// reaches the section decoders. Inputs stay small, which keeps the fuzzer's
// minimization of each new input (quadratic in its length) cheap. The
// decoder must never panic, and must never allocate more than a small
// multiple of the bytes it was given: a decoded element takes at most about
// twelve times its encoded size (a non-rational agent is 16 bytes on disk).
func FuzzCheckpointDecode(f *testing.F) {
	// Seeds are small engines (three peers, one article), one per scheme.
	dir := f.TempDir()
	var seeds [][]byte
	for _, kind := range allSchemeKinds {
		cfg := snapshotTestConfig(kind)
		cfg.Peers = 3
		cfg.SeedArticles = 1
		cfg.MeasureSteps = 5
		eng, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		eng.TrainN(10)
		res, err := eng.Measure()
		if err != nil {
			f.Fatal(err)
		}
		ck := &chainCheckpoint{Name: kind.String(), Done: []Result{res}}
		eng.Snapshot(&ck.Snap)
		if err := writeChainCheckpoint(dir, ck); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(checkpointPath(dir, ck.Name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	f.Add(uint8(0), uint32(0), []byte{}, uint32(0))
	f.Add(uint8(4), uint32(len(ckptMagic)+8), []byte("\x00\x00\x00\x80"), uint32(0))
	f.Add(uint8(2), uint32(100), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint32(9))

	f.Fuzz(func(t *testing.T, seed uint8, off uint32, patch []byte, trim uint32) {
		file := append([]byte(nil), seeds[int(seed)%len(seeds)]...)
		at := int(off % uint32(len(file)+1))
		file = append(file[:at], append(patch, file[min(at+len(patch), len(file)):]...)...)
		file = file[:len(file)-int(trim%uint32(len(file)+1))]
		body := []byte(nil)
		if head := len(ckptMagic) + 8; len(file) > head+4 {
			body = file[head : len(file)-4]
		}
		sealed := sealFile(ckptMagic, ckptVersion, body)
		n := allocated(func() {
			_ = codec.Decode(file, ckptMagic, ckptVersion, (&chainCheckpoint{}).decode)
			_ = codec.Decode(sealed, ckptMagic, ckptVersion, (&chainCheckpoint{}).decode)
		})
		if limit := uint64(32*len(sealed) + 64<<10); n > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(sealed), n, limit)
		}
	})
}
