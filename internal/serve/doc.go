// Package serve turns the trust/reputation library into a long-running
// service: an HTTP daemon (cmd/collabserve) that ingests trust-edge and
// contribution events, answers reputation and allocation queries, and keeps
// the EigenTrust vector fresh — all under sustained mixed traffic, without
// a query ever blocking on a write or a solve.
//
// # The three planes
//
// The server is organized as three planes with strictly one-directional
// coupling, each leaning on a specific guarantee of the concurrent trust
// store (reputation.ConcurrentGraph):
//
//   - The write plane (POST /v1/events → writer) admits batches of
//     validated events into bounded per-shard queues and acknowledges with
//     202 before any store work happens; dedicated drainer goroutines apply
//     the events through the store's sharded ingest enqueue (AddTrust /
//     SetTrust — O(1) per-shard mutex sections). Events shard by their
//     *source peer* (the statement's author) at both layers, so each
//     source's statement order is preserved end to end — the precondition
//     of the store's serial-reference guarantee: any concurrent schedule
//     that preserves per-source order compacts bit-identical to a serial
//     LogGraph replay. When a shard's queue is full the whole per-shard
//     group of the request is refused with 429 (never partially applied
//     and never reordered), which is the admission-control/backpressure
//     boundary.
//
//   - The read plane (GET /v1/reputation, /v1/top, /v1/alloc, /v1/trust)
//     serves from the last published reputation.TrustSnapshot — one atomic
//     load — and from epoch-pinned adjacency reads (Acquire/Release). Both are
//     lock-free and allocation-light, and neither can be blocked by the
//     write plane or by an in-flight solve: readers pin epochs, they never
//     wait for the publisher. This is what keeps query tail latency flat
//     while EigenTrust refreshes.
//
//   - The solve plane (a single refresh goroutine) recomputes the
//     eigenvector on a wall-clock cadence through
//     incentive.GlobalTrust{Concurrent: true}: RefreshIfStale skips solves
//     while the store is idle; a solve runs under the store's maintenance
//     lock (Exclusive) against the exact merged log and republishes the
//     vector as an immutable snapshot stamped with the epoch it was
//     computed from. Readers holding older snapshots are unaffected;
//     writers keep enqueueing throughout (their statements fold into the
//     next publish). All solver state lives on this one goroutine, so the
//     scheme's single-threaded contract is never violated.
//
// # Quiescence and warm restart
//
// The maintenance surface (POST /v1/flush, server shutdown) uses writer
// barriers: a sentinel batch per shard whose completion proves every
// earlier event has reached the store, followed by a store Flush that
// publishes the folded state. Shutdown then snapshots the scheme state
// (canonical compacted edge list + trust vector) in the shared codec
// envelope (internal/codec: magic, format version 2, body, CRC32C trailer,
// written by temp file + fsync + rename); a restart loads it, republishes
// graph epoch and trust snapshot, and resumes bit-identical to a serial
// replay of everything the dead process had acknowledged and drained. A
// corrupt file — bad checksum, a count larger than the file, a trust vector
// that is not a finite distribution — fails New with an error. So does a
// version-1 file written before the envelope existed; deleting it gives a
// cold start.
package serve
