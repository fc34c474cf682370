package serve

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"collabnet/internal/codec"
	"collabnet/internal/incentive"
)

// sealFile builds a file image in the codec envelope around raw body bytes:
// magic, version word, body, CRC32C trailer.
func sealFile(magic string, version uint64, body []byte) []byte {
	b := binary.LittleEndian.AppendUint64([]byte(magic), version)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

func words(ws ...uint64) []byte {
	var b []byte
	for _, w := range ws {
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

// savedSnapshot returns the bytes of a valid snapshot of an 8-peer server
// holding a few edges.
func savedSnapshot(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "good.snap")
	s, err := New(Config{Peers: 8, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}} {
		if err := s.Store().AddTrust(e[0], e[1], 1.5); err != nil {
			t.Fatal(err)
		}
	}
	s.Store().Flush()
	if err := s.gt.RefreshNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotRejectsHostileFiles pins the restart path's defences: every
// file below must make New fail, within 1 MB of allocation, instead of
// crashing the daemon or serving a poisoned vector.
func TestSnapshotRejectsHostileFiles(t *testing.T) {
	good := savedSnapshot(t)
	flipped := append([]byte(nil), good...)
	flipped[len(snapshotMagic)+8+8] ^= 0x01 // low byte of the edge count

	var nan []byte
	{
		var st incentive.State
		if err := codec.Decode(good, snapshotMagic, snapshotVersion, st.Decode); err != nil {
			t.Fatal(err)
		}
		st.GraphTrust.Trust[3] = math.NaN()
		path := filepath.Join(t.TempDir(), "nan.snap")
		if err := codec.WriteFile(path, snapshotMagic, snapshotVersion, st.Encode); err != nil {
			t.Fatal(err)
		}
		var err error
		if nan, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		// A version-1 header claiming 8 peers and 2^32 edges in 31 bytes (a
		// 96 GB allocation for a decoder that trusts the count). Old files
		// are refused by version.
		{"v1-huge-edges", "version 1", append([]byte(snapshotMagic), words(1, 8, 1<<32)...)},
		// The same claim in the current layout, with a valid checksum: 31
		// bytes of header (magic, version, kind, edge count) and nothing
		// behind them.
		{"huge-edges", "exceeds", sealFile(snapshotMagic, snapshotVersion,
			words(uint64(incentive.KindEigenTrust), 1<<32))},
		{"bit-flip", "checksum", flipped},
		{"nan-trust", "not a finite distribution", nan},
		{"trailing", "trailing", sealFile(snapshotMagic, snapshotVersion,
			append(good[len(snapshotMagic)+8:len(good)-4], 0))},
		{"wrong-kind", "kind", sealFile(snapshotMagic, snapshotVersion,
			append(words(uint64(incentive.KindKarma)), words(8, 0, 0, 0, 0, 0, 0, 0, 0)...))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.snap")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			n := allocated(func() { _, err = New(Config{Peers: 8, SnapshotPath: path}) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			if n > 1<<20 {
				t.Fatalf("rejecting the file allocated %d bytes", n)
			}
		})
	}
}

// FuzzServeSnapshotDecode feeds arbitrary bodies, sealed with a valid
// checksum so they reach the state decoder, through the daemon's restart
// path. Neither the decode nor the load may panic, and the decode may not
// allocate more than a small multiple of the input.
func FuzzServeSnapshotDecode(f *testing.F) {
	good := savedSnapshot(f)
	f.Add(good[len(snapshotMagic)+8 : len(good)-4])
	f.Add(words(uint64(incentive.KindEigenTrust), 1<<32))
	f.Add(words(uint64(incentive.KindEigenTrust), 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))

	gt, err := incentive.NewGlobalTrust(8, incentive.DefaultGlobalTrustConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		file := sealFile(snapshotMagic, snapshotVersion, body)
		var st incentive.State
		var err error
		n := allocated(func() { err = codec.Decode(file, snapshotMagic, snapshotVersion, st.Decode) })
		if limit := uint64(4*len(file) + 64<<10); n > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(file), n, limit)
		}
		if err == nil {
			_ = gt.LoadState(&st)
		}
	})
}
