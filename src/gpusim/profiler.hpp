// Nsight-style counter surface for the virtual GPU.
//
// FastZ's headline claims are counter-level claims — ~96% of score-matrix
// traffic elided by cyclic register buffering (Section 3.2), >80% of seeds
// resolved by the inspector's eager traceback (Section 3.1.2), and length
// binning removing the bulk-synchronous load imbalance (Section 3.3). The
// aggregate KernelCost cannot show any of them per kernel or per SM; a
// ProfilerSession can. While one is installed, every KernelSimulator launch
// records a KernelProfile: the launch tag (kernel name, pipeline phase,
// stream id), the modeled cost, hardware
// counters (issued vs stalled warp-cycles, achieved occupancy, divergence
// derating, per-SM busy time and the bulk-synchronous tail), the per-level
// memory traffic the kernel moved, and the kernel's interval on the
// simulated per-stream timeline.
//
// Consumers: `fastz_prof` (per-kernel table + fastz.profile/v1 JSON), the
// Chrome-trace export (kernel lanes and counter tracks merged with the
// host-side spans), and `fastz_benchdiff` (regression gating in CI). See
// docs/PROFILING.md.
//
// Cost discipline matches the telemetry subsystem: with no session
// installed, the simulator pays exactly one relaxed atomic load per launch.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/kernel_sim.hpp"
#include "gpusim/memory_ledger.hpp"
#include "util/digest.hpp"

namespace fastz::gpusim {

// Identity of one kernel launch. derive() labels its launches
// ("inspector", "executor.batch0", "executor.hirschberg", ...); `stream` is
// assigned by the simulator's stream scheduler.
struct KernelTag {
  std::string name = "kernel";
  std::string phase;          // "inspector" | "executor" | ""
  std::uint32_t stream = 0;
  // Per-level traffic attribution of this launch, filled by the caller only
  // while a ProfilerSession is installed (WarpTask stays two words so the
  // unprofiled scheduling path keeps its footprint — see kernel_sim.hpp).
  // In run_pipeline, a single shared base tag attributes its traffic to the
  // first launch only; per-launch tags attribute exactly.
  MemoryLedger traffic;
  // Owning service batch / request (zero when the launch happened outside
  // the alignment service). Callers normally leave these zero:
  // ProfilerSession::record stamps them from the launching thread's
  // telemetry::TraceContext, so every launch a worker performs on behalf
  // of a request is attributable in the merged Chrome trace.
  Digest128 batch{};
  Digest128 request{};
};

// Modeled hardware counters of one kernel, in the vocabulary of a GPU
// profiler. Definitions (see docs/PROFILING.md for the derivations):
//   issued_warp_cycles  — warp-instruction issues after divergence derating
//                         (each derated instruction occupies one issue slot
//                         for one cycle).
//   stalled_warp_cycles — issue-slot cycles inside the kernel's span that
//                         did not retire an instruction: dependent-chain
//                         bubbles, the bulk-synchronous tail, and memory
//                         stalls when the roofline binds.
//   achieved_occupancy  — time-weighted fraction of the device's issue
//                         slots holding a resident warp, in (0, 1].
//   sm_busy_s           — per-SM seconds spent executing warp-tasks; the
//                         spread across SMs is the load-imbalance signal
//                         binning exists to fix.
//   tail_latency_s      — makespan minus the earliest SM finish time: how
//                         long the most idle SM waited at the kernel's
//                         bulk-synchronous barrier.
struct HwCounters {
  std::uint64_t tasks = 0;
  std::uint64_t warp_instructions = 0;  // pre-derate
  std::uint64_t issued_warp_cycles = 0;
  std::uint64_t stalled_warp_cycles = 0;
  double achieved_occupancy = 0.0;
  double divergence_derate = 1.0;
  double tail_latency_s = 0.0;
  std::vector<double> sm_busy_s;
  // Per-kernel per-level traffic attribution, copied from the launch's
  // KernelTag::traffic.
  MemoryLedger traffic;

  double max_sm_busy_s() const noexcept;
  double mean_sm_busy_s() const noexcept;
  // Load-imbalance factor: max over mean per-SM busy time (1.0 = perfectly
  // balanced, higher = one SM holds the kernel hostage).
  double load_imbalance() const noexcept;

  // Accumulates counters (per-SM busy times elementwise; occupancy and
  // derate as task-weighted means).
  void merge(const HwCounters& other);
};

// One recorded launch: tag + cost + counters + simulated-timeline interval.
struct KernelProfile {
  KernelTag tag;
  KernelCost cost;
  HwCounters counters;
  double start_s = 0.0;  // simulated seconds since the session started
  double end_s = 0.0;
};

class ProfilerSession {
 public:
  ProfilerSession() = default;
  ~ProfilerSession();

  ProfilerSession(const ProfilerSession&) = delete;
  ProfilerSession& operator=(const ProfilerSession&) = delete;

  // Makes this session the process-wide active one. At most one session can
  // be installed at a time (install over an existing one replaces it).
  void install() noexcept;
  void uninstall() noexcept;

  // The installed session, or nullptr. One relaxed load — this is the whole
  // cost of a launch while profiling is off.
  static ProfilerSession* active() noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  // ---- Recording (called by KernelSimulator / the pipeline). --------------
  void record(KernelProfile profile);
  // Simulated-timeline cursor: kernels are placed end-to-end per call,
  // overlapping across streams within one run_pipeline call.
  double now_s() const;
  void advance(double dt);
  // Pipeline-level tallies behind the summary ratios.
  void note_seeds(std::uint64_t seeds, std::uint64_t eager_handled);

  // ---- Queries. -----------------------------------------------------------
  std::vector<KernelProfile> kernels() const;
  std::size_t kernel_count() const;
  std::uint64_t seeds() const;
  std::uint64_t eager_handled() const;
  // Fraction of inspected seeds the eager-traceback tile finished (the
  // paper's >80%); 0 when no derive ran under this session.
  double eager_hit_rate() const;
  // Traffic summed over every recorded kernel.
  MemoryLedger traffic() const;
  // Session-wide score-traffic elision ratio (the paper's ~96%).
  double score_elision_ratio() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<KernelProfile> kernels_;
  double timeline_s_ = 0.0;
  std::uint64_t seeds_ = 0;
  std::uint64_t eager_handled_ = 0;

  static std::atomic<ProfilerSession*> active_;
};

// RAII install/uninstall, for benches and tests.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(ProfilerSession& session) noexcept : session_(session) {
    session_.install();
  }
  ~ScopedProfiler() { session_.uninstall(); }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;

 private:
  ProfilerSession& session_;
};

}  // namespace fastz::gpusim
