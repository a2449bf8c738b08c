// Clock-domain crossing for the cycle-driven simulator.
//
// The GPU core/interconnect domain runs at 1400 MHz and the GDDR5 command
// clock at 924 MHz (Table I). The simulator advances one core cycle at a time;
// ClockDivider answers "how many memory-domain ticks fall inside this core
// cycle" using exact integer arithmetic (no floating-point drift).
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace lazydram {

class ClockDivider {
 public:
  /// `numer`/`denom` is the ratio slow_freq / fast_freq, e.g. 924/1400.
  ClockDivider(std::uint64_t numer, std::uint64_t denom) : numer_(numer), denom_(denom) {
    LD_ASSERT(numer > 0 && denom > 0);
    LD_ASSERT_MSG(numer <= denom, "slow domain must not be faster than fast domain");
  }

  /// Advances one fast-domain cycle; returns the number of slow-domain ticks
  /// (0 or 1 when numer <= denom) elapsing within it.
  unsigned tick() {
    acc_ += numer_;
    unsigned ticks = 0;
    while (acc_ >= denom_) {
      acc_ -= denom_;
      ++ticks;
      ++slow_cycles_;
    }
    return ticks;
  }

  Cycle slow_cycles() const { return slow_cycles_; }

  void reset() {
    acc_ = 0;
    slow_cycles_ = 0;
  }

 private:
  std::uint64_t numer_;
  std::uint64_t denom_;
  std::uint64_t acc_ = 0;
  Cycle slow_cycles_ = 0;
};

}  // namespace lazydram
