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
//   - The write plane (POST /v1/events) validates a batch of events and
//     hands it to the store's one batch call, ConcurrentGraph.Ingest, on
//     the handler goroutine. Ingest first reserves the batch's size against
//     the store's pending counter with a CAS — the backlog of statements
//     accepted but not yet folded into the log, capped store-wide by
//     Config.QueueDepth — and only then appends each statement to its
//     source peer's ingest shard (one short per-shard mutex section per
//     statement). A batch is accepted whole (202) or, when it would pass
//     the cap, refused whole with 429: a 429 applies nothing, for any batch
//     shape, so an identical retry is safe. (A retry after a lost 202 is
//     not: ingest has no per-source sequence numbers yet.) Because a source's statements
//     stay in order on its shard, each source's statement order is
//     preserved end to end — the precondition of the store's
//     serial-reference guarantee: any concurrent schedule that preserves
//     per-source order compacts bit-identical to a serial LogGraph replay.
//     The write plane never takes the store's maintenance lock and never
//     publishes, so neither a solve nor a pinned reader can stall it; the
//     backlog becomes visible at the next publish of the solve plane or of
//     a flush.
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
//     writers keep admitting throughout, up to the backlog cap (their
//     statements fold into the next solve). All solver state lives on this
//     one goroutine — the only goroutine the server starts — so the
//     scheme's single-threaded contract is never violated.
//
// # Quiescence and warm restart
//
// The maintenance surface (POST /v1/flush, server shutdown) is a store
// Flush: it folds the whole backlog into the log under the maintenance lock
// and publishes, so every event acknowledged before the call is visible
// after it. An acknowledged event is already in the store's ingest shards,
// so Flush also works before Start.
// Shutdown then snapshots the scheme state (canonical compacted edge list +
// trust vector) in the shared codec envelope (internal/codec: magic, format
// version 2, body, CRC32C trailer, written by temp file + fsync + rename); a
// restart loads it, republishes graph epoch and trust snapshot, and resumes
// bit-identical to a serial replay of everything the dead process had
// acknowledged. A corrupt file — bad checksum, a count larger than the
// file, a trust vector that is not a finite distribution — fails New with
// an error. So does a version-1 file written before the envelope existed;
// deleting it gives a cold start.
package serve
