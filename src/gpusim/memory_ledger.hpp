// Byte-accurate accounting of the memory traffic a kernel configuration
// generates. FastZ's central claim is traffic *elimination* (Sections 3.2
// and 6 of the paper); the ledger is filled by the functional kernels from
// the work they actually perform, and the roofline experiment (bench_roofline)
// reports operational intensities from it.
#pragma once

#include <cstdint>

namespace fastz::gpusim {

struct MemoryLedger {
  // DP score-matrix traffic (bytes). With cyclic use-and-discard buffering
  // these stay in registers and only strip-boundary lanes spill.
  std::uint64_t score_read_bytes = 0;
  std::uint64_t score_write_bytes = 0;
  // Strip-boundary spills of the three-diagonal register state (12 bytes
  // per boundary cell: S, I, D at 4 bytes each — Section 6).
  std::uint64_t boundary_spill_bytes = 0;
  // Traceback state: logical bytes (one packed byte per executor cell) and
  // wire bytes after write-combining. Staged through shared memory the two
  // are equal; un-staged byte stores cost a full 32-byte sector each.
  std::uint64_t traceback_bytes = 0;
  std::uint64_t traceback_wire_bytes = 0;
  // Sequence bases fetched by the DP (served from L2/texture in practice;
  // tracked for completeness, charged at a small fraction).
  std::uint64_t sequence_bytes = 0;
  // Host <-> device copies (seeds in, alignments out, sequences).
  std::uint64_t host_copy_bytes = 0;
  // Per-level placement of the traffic (the Nsight-style memory hierarchy
  // view the profiler reports). `register_elided_bytes` is score traffic
  // that the cyclic use-and-discard buffers kept in per-lane registers —
  // the would-be DRAM bytes the paper's Section 3.2 claims are eliminated.
  // `shared_staged_bytes` is traceback traffic write-combined through the
  // shared-memory staging line before reaching DRAM.
  std::uint64_t register_elided_bytes = 0;
  std::uint64_t shared_staged_bytes = 0;
  // Device-resident traceback allocation, summed over tasks at each task's
  // own high-water mark (an allocation footprint, not traffic — hence not in
  // device_bytes()). Dense rectangle tasks contribute their whole packed
  // matrix; Hirschberg tasks contribute one base block plus live
  // checkpoints, O(n + m) per task. This is the number the linear-space
  // path exists to shrink.
  std::uint64_t traceback_resident_bytes = 0;
  // Device-resident sequence staging of the dispatcher: the bases a packed
  // launch keeps staged while it runs, doubled because staging is
  // double-buffered so the next launch's sequences upload under the current
  // one. High-water footprint of one derive (an allocation, not traffic —
  // hence not in device_bytes()); merge() sums footprints like
  // traceback_resident_bytes.
  std::uint64_t staging_buffer_bytes = 0;

  std::uint64_t device_bytes() const noexcept {
    return score_read_bytes + score_write_bytes + boundary_spill_bytes +
           traceback_wire_bytes + sequence_bytes;
  }

  // ---- Per-level view (registers / shared / L2 / DRAM). --------------------
  // Score bytes that actually reached DRAM: the full-matrix read/write
  // traffic (cyclic buffering off) plus the strip-boundary spills.
  std::uint64_t materialized_score_bytes() const noexcept {
    return score_read_bytes + score_write_bytes + boundary_spill_bytes;
  }
  // Sequence fetches are served from L2/texture (charged at a fraction by
  // the roofline; accounted at this level by the profiler).
  std::uint64_t l2_bytes() const noexcept { return sequence_bytes; }
  std::uint64_t dram_bytes() const noexcept {
    return materialized_score_bytes() + traceback_wire_bytes;
  }
  // Fraction of the score-matrix traffic that never left registers — the
  // paper's ~96% elision claim (Section 3.2 / Section 6).
  double score_elision_ratio() const noexcept {
    const std::uint64_t total = register_elided_bytes + materialized_score_bytes();
    return total == 0 ? 0.0
                      : static_cast<double>(register_elided_bytes) /
                            static_cast<double>(total);
  }

  void merge(const MemoryLedger& other) noexcept {
    score_read_bytes += other.score_read_bytes;
    score_write_bytes += other.score_write_bytes;
    boundary_spill_bytes += other.boundary_spill_bytes;
    traceback_bytes += other.traceback_bytes;
    traceback_wire_bytes += other.traceback_wire_bytes;
    sequence_bytes += other.sequence_bytes;
    host_copy_bytes += other.host_copy_bytes;
    register_elided_bytes += other.register_elided_bytes;
    shared_staged_bytes += other.shared_staged_bytes;
    traceback_resident_bytes += other.traceback_resident_bytes;
    staging_buffer_bytes += other.staging_buffer_bytes;
  }
};

// Cost constants shared by the kernels' accounting (Figure 1 / Section 6 of
// the paper).
inline constexpr std::uint64_t kOpsPerCell = 9;          // 5 adds + 4 compares
inline constexpr std::uint64_t kScoreReadBytesPerCell = 20;   // 5 reads x 4 B
inline constexpr std::uint64_t kScoreWriteBytesPerCell = 12;  // 3 writes x 4 B
inline constexpr std::uint64_t kBoundarySpillBytes = 12;      // S, I, D x 4 B
inline constexpr std::uint64_t kSectorBytes = 32;  // DRAM sector for stray byte writes

}  // namespace fastz::gpusim
