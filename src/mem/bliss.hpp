// BLISS — the Blacklisting memory scheduler (Subramanian et al., adapted to
// the GPU setting as in the staged-scheduling literature): instead of ranking
// every requestor, track only which *warp group* (source SM) streamed the
// last `threshold` column accesses back-to-back and temporarily blacklist it.
// Non-blacklisted requestors win; within a priority class, row hits beat
// misses and age breaks ties. The blacklist is cleared wholesale every
// `clear_interval` memory cycles, so a hog loses at most one interval of
// priority.
//
// GPU adaptation notes: the interference domain is the SM (the closest
// analogue of the "application" in the single-GPU setting); writes are dirty
// L2 evictions carrying no SM and are exempt from blacklisting (served at
// normal priority, never counted toward a streak).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "mem/scheduler.hpp"

namespace lazydram {

class BlissScheduler : public Scheduler {
 public:
  BlissScheduler(const PolicyParams& p, unsigned num_sms);

  Decision decide(const PendingQueue& queue, const BankView& bank, Cycle now) override;
  void tick(Cycle now, std::uint64_t bus_busy_total) override;
  void on_serve(const MemRequest& req) override;
  void register_stats(telemetry::TelemetryHub& hub, const std::string& prefix) const override;

  /// Blacklist ranking deliberately closes rows that still hold pending hits
  /// from a blacklisted SM.
  bool hit_first() const override { return false; }

  /// A serve on any bank can blacklist an SM and reorder every other bank's
  /// candidates, so per-bank decide() memos are unsound for this policy.
  bool decide_memo_safe() const override { return false; }

  bool blacklisted(SmId sm) const { return blacklist_[sm]; }
  std::uint64_t blacklist_events() const { return blacklist_events_; }
  std::uint64_t clear_events() const { return clear_events_; }

 private:
  unsigned threshold_;
  Cycle clear_interval_;

  std::vector<std::uint8_t> blacklist_;  ///< Indexed by SmId.
  SmId streak_sm_ = MemRequest::kNoSm;   ///< SM of the current serve streak.
  unsigned streak_ = 0;                  ///< Consecutive serves from streak_sm_.
  Cycle next_clear_ = 0;

  std::uint64_t blacklist_events_ = 0;  ///< SMs blacklisted (cumulative).
  std::uint64_t clear_events_ = 0;      ///< Interval clears (cumulative).
};

}  // namespace lazydram
