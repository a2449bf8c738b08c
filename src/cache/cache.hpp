// Set-associative, write-back, LRU cache model used for the per-SM L1s and
// the per-partition L2 slices.
//
// The model is tag-only: functional data lives in gpu::FunctionalMemory, so
// lines track {address, valid, dirty, approximate} but carry no bytes. The
// `approximate` flag marks lines filled by the VP unit rather than by DRAM.
// The L2's tag arrays double as the VP unit's search structure, which is why
// the cache exposes set geometry and per-set line enumeration ("we take
// advantage of the existing associative search hardware", Section IV-D).
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace lazydram::cache {

/// Outcome of a lookup or fill.
struct AccessResult {
  bool hit = false;
  /// A dirty line was evicted by this fill and must be written back.
  bool writeback = false;
  Addr evicted_line = 0;
};

class Cache {
 public:
  explicit Cache(const CacheGeometry& geo);

  /// Looks up `line_addr` (must be 128B-aligned). On hit, updates LRU and,
  /// if `is_write`, marks the line dirty. Misses do NOT allocate — call
  /// fill() when the refill arrives (or immediately for 0-latency models).
  AccessResult access(Addr line_addr, bool is_write);

  /// Allocates `line_addr`, evicting the set's LRU victim if needed.
  /// `dirty` marks the new line dirty at once (write-allocate stores);
  /// `approximate` tags VP-synthesized fills.
  AccessResult fill(Addr line_addr, bool dirty, bool approximate);

  /// Invalidates `line_addr` if present; returns true if it was dirty.
  bool invalidate(Addr line_addr);

  bool contains(Addr line_addr) const;
  bool line_is_approx(Addr line_addr) const;

  // --- Geometry / VP-unit support ---
  std::uint32_t num_sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t set_index(Addr line_addr) const {
    return static_cast<std::uint32_t>((line_addr / kLineBytes) & (sets_ - 1));
  }
  /// Appends the addresses of all valid lines in `set` to `out`.
  void lines_in_set(std::uint32_t set, std::vector<Addr>& out) const;

  // --- Statistics ---
  /// Counts `n` misses without probing, for a caller replaying accesses it
  /// knows would miss (an SM accounting the ticks it slept through).
  void record_misses(std::uint64_t n) { misses_ += n; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  std::uint64_t fills() const { return fills_; }
  double hit_rate() const {
    return accesses() == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(accesses());
  }

 private:
  struct Line {
    Addr addr = 0;
    bool valid = false;
    bool dirty = false;
    bool approximate = false;
    std::uint64_t last_use = 0;
  };

  Line* find(Addr line_addr);
  const Line* find(Addr line_addr) const;

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Line> lines_;  ///< sets_ x ways_, row-major by set.
  std::uint64_t use_clock_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t fills_ = 0;
};

}  // namespace lazydram::cache
