package serve

import (
	"fmt"

	"collabnet/internal/codec"
	"collabnet/internal/incentive"
)

// Warm-restart snapshots are the scheme state (incentive.State.Encode) in
// the shared codec envelope. The encoding is canonical, so two snapshots of
// equal state are equal byte-for-byte — the property the warm-restart
// bit-identity test pins. Version 1 files (no checksum) are refused.
const (
	snapshotMagic   = "CLSRVS\n"
	snapshotVersion = 2
)

// SaveSnapshot quiesces nothing by itself: call it after Stop (or after a
// flush) so the saved edge list reflects every drained event. The file is
// written atomically (temp + fsync + rename) so a crash mid-write leaves
// the previous snapshot intact.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return fmt.Errorf("serve: no snapshot path configured")
	}
	var st incentive.State
	s.gt.SaveState(&st)
	return codec.WriteFile(s.cfg.SnapshotPath, snapshotMagic, snapshotVersion, st.Encode)
}

// loadSnapshot restores scheme state written by SaveSnapshot. It runs at
// construction time, before any goroutine exists, so calling LoadState
// directly (single-threaded) is safe; LoadState checks the state against
// the configured peer count and republishes the trust snapshot at the
// restored graph's epoch in concurrent mode.
func (s *Server) loadSnapshot(path string) error {
	var st incentive.State
	if err := codec.ReadFile(path, snapshotMagic, snapshotVersion, st.Decode); err != nil {
		return err
	}
	return s.gt.LoadState(&st)
}
