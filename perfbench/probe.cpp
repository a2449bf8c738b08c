#include "probe.hpp"

#include <chrono>
#include <cstdint>

namespace perfbench {

namespace {
volatile std::uint64_t g_sink = 0;
}  // namespace

// Four independent integer chains keep several execution ports busy, so the
// loop slows with whatever else shares the core (an SMT sibling of another
// tenant, chiefly), as the simulator does. A latency-bound single chain or a
// memory walk tracked the simulator's run times markedly worse on the 4-vCPU
// VM the benchmark was tuned on.
double host_probe_seconds() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (std::uint64_t k = 0; k < 20'000'000; ++k) {
    a = a * 6364136223846793005ull + 1;
    b ^= b << 7;
    c += c >> 3;
    d = d * 3 + k;
  }
  g_sink = a + b + c + d;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace perfbench
