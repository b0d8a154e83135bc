// SessionCheckpoint: a compact, resumable snapshot of a ProgXeSession's
// region cursor, exported at region boundaries and consumed by a re-opened
// incarnation of the same prepared inputs (PR 10).
//
// The checkpoint does NOT carry tuples or table state — regeneration is the
// recovery mechanism, the checkpoint only bounds it. `skip_regions` lists
// region ids that are *skip-safe*: re-processing them in a fresh incarnation
// cannot produce any undelivered local-skyline member, so the resumed loop
// pre-removes them before its first Step and never re-generates their join
// pairs. A region is skip-safe iff
//
//   (a) it was discarded without processing (its would-be tuples are
//       strictly dominated by frontier points that are themselves delivered
//       or regenerated), or
//   (b) it was processed and every output cell in its coverage box is
//       !populated || emitted || marked — i.e. every live tuple it could
//       have contributed is already flushed (delivered) or dead.
//
// A positive verdict is permanent, so it is cached across exports. The box
// condition (b) is not: a still-active region may later populate a cell of
// the box. But the processed region's own tuples are fixed, and once each is
// delivered or dead it stays so (emitted/marked are never un-set), which is
// what skip-safety needs.
//
// Export cost (RegionLoop::ExportCheckpoint) follows what changed since the
// previous export, not region count x box volume. Regions removed since
// then are classified once: (a) ones join the sorted skip list directly,
// (b) candidates join a list of processed-but-unsafe regions. Each unsafe
// region caches its *blocking cell* — the unflushed cell (populated,
// !emitted, !marked) that failed its last test. A re-test first checks
// that cell (O(1)); only once it has cleared does it scan the output
// table's unflushed-cell list for another cell inside the box, stopping at
// the first hit. So one export costs O(new removals + unsafe regions +
// unflushed cells per cleared blocker), and the unflushed cells are the
// few populated cells still waiting to flush, not the box's cells.
// `replay_pairs_saved` is a running total of the skip-safe processed
// regions' actual join pairs (recorded per region as they are joined).
//
// A resumed incarnation may still emit tuples *outside* the true local
// skyline (a suppressor from a skipped region is absent); the sharded merge
// compensates by keeping the resumed shard's own watermark in the release
// check (see shard/sharded_stream.h) and by its per-shard dedup set, so the
// merged delivered set stays bit-identical.
//
// Checkpoints travel over the wire (the `kOpenShard` checkpoint group) to
// resume remote shards; all fields are validated on restore and a stale or
// corrupt checkpoint is rejected with kInvalidArgument, which callers treat
// as "fall back to full replay".
#pragma once

#include <cstdint>
#include <vector>

#include "progxe/config.h"

namespace progxe {

struct SessionCheckpoint {
  /// Output dimensionality of the capturing session (validation).
  uint32_t k = 0;
  /// Results the capturing incarnation had delivered when the checkpoint
  /// was taken (cross-checked against the coordinator's dedup set).
  uint64_t delivered = 0;
  /// Total region count of the prepared lookahead (validation: a checkpoint
  /// only resumes the exact same PreparedInputs).
  uint64_t region_count = 0;
  /// Join pairs the listed processed regions generated in the capturing
  /// incarnation — the pairs a resumed incarnation will not re-generate —
  /// plus, when the capturing incarnation was itself resumed, the total of
  /// the checkpoint it resumed from (its pre-removed regions stay listed).
  uint64_t replay_pairs_saved = 0;
  /// Skip-safe region ids, sorted strictly increasing.
  std::vector<int32_t> skip_regions;
  /// Stats snapshot at capture (auditing; not folded into the resumed
  /// session's own counters).
  ProgXeStats stats;
};

}  // namespace progxe
