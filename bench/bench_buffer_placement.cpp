// Section 3.2's buffer-placement analysis: shared memory vs registers for
// the cyclic use-and-discard buffers.
//
// Paper: "2 thread blocks each with 64 warps of 32 threads, each requiring
// 36 bytes (3 scores of 4 bytes each), corresponds to 144 KB of Shared
// Memory storage" — beyond every device's capacity — "in contrast, the
// per-thread storage of 36 bytes can be accommodated easily in the register
// space of each CUDA thread."
#include <iostream>

#include "gpusim/occupancy.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;
using namespace fastz::gpusim;

int main(int argc, char** argv) {
  CliParser cli("Cyclic-buffer placement: shared memory vs registers "
                "(Section 3.2).");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;

  std::cout << "=== Section 3.2: cyclic use-and-discard buffer placement ===\n";
  std::cout << "Per-thread buffer state: " << kCyclicBufferBytesPerThread
            << " B (3 diagonals x S/I/D x 4 B)\n";
  std::cout << "Paper's concurrency example (" << kPaperExampleWarpsPerSm
            << " warps/SM): " << (128u * 32u * 36u) / 1024 << " KB of shared memory\n\n";

  TextTable t({"Device", "SMEM/SM (KB)", "Example fits SMEM?",
               "Warps (buffers in SMEM)", "Warps (buffers in registers)", "Limiter"});
  for (const DeviceSpec& d : {titan_x_pascal(), v100_volta(), rtx3080_ampere()}) {
    const BufferPlacementAnalysis a = analyze_buffer_placement(d);
    t.add_row({d.name, TextTable::num(std::uint64_t{d.shared_mem_per_sm_bytes / 1024}),
               a.smem_bytes_for_full_occupancy > d.shared_mem_per_sm_bytes ? "no" : "yes",
               TextTable::num(std::uint64_t{a.with_shared_memory_buffers.resident_warps_per_sm}),
               TextTable::num(std::uint64_t{a.with_register_buffers.resident_warps_per_sm}),
               a.with_shared_memory_buffers.limiter});
  }
  t.render(std::cout);

  std::cout << "\nReading: at the paper's target concurrency the buffers do "
               "not fit in shared memory on any device, while 9 extra "
               "registers per thread are comfortably within budget — hence "
               "FastZ houses the cyclic buffers in registers and exchanges "
               "neighbor values with register-shuffle instructions.\n";
  return 0;
}
