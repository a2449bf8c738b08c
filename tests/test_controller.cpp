// MemoryController + FR-FCFS integration tests: drive the controller
// directly with synthetic requests (no GPU core side) and verify row-buffer
// behaviour, FR-FCFS ordering, service conservation and RBL accounting.
#include <gtest/gtest.h>

#include <memory>

#include "common/config.hpp"
#include "core/scheduler_registry.hpp"
#include "core/scheme.hpp"
#include "dram/address.hpp"
#include "mem/controller.hpp"

namespace lazydram {
namespace {

GpuConfig test_config() {
  GpuConfig cfg;
  cfg.policy.name = "frfcfs";
  cfg.validate();
  return cfg;
}

class ControllerHarness {
 public:
  ControllerHarness()
      : cfg_(test_config()),
        mapper_(cfg_),
        mc_(cfg_, /*channel=*/0, mapper_, core::make_scheduler(cfg_, core::SchemeSpec{})) {}

  /// Builds a read request to (bank, row, col) on channel 0.
  MemRequest read_at(BankId bank, RowId row, std::uint32_t col_line) {
    MemRequest r;
    r.id = next_id_++;
    r.line_addr = mapper_.compose(0, bank, row, col_line * kLineBytes);
    r.kind = AccessKind::kRead;
    return r;
  }

  /// Runs `cycles` memory cycles.
  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      mc_.tick(now_);
      while (mc_.pop_reply(now_)) ++replies_;
      ++now_;
    }
  }

  GpuConfig cfg_;
  AddressMapper mapper_;
  MemoryController mc_;
  Cycle now_ = 0;
  RequestId next_id_ = 1;
  unsigned replies_ = 0;
};

TEST(MemoryController, SameRowRequestsShareOneActivation) {
  ControllerHarness h;
  // Eight reads to distinct columns of one row, enqueued together.
  for (std::uint32_t c = 0; c < 8; ++c) h.mc_.enqueue(h.read_at(2, 5, c), h.now_);
  h.run(2000);
  EXPECT_EQ(h.replies_, 8u);
  EXPECT_TRUE(h.mc_.idle());
  h.mc_.finalize();
  EXPECT_EQ(h.mc_.channel().activations(), 1u);
  EXPECT_EQ(h.mc_.channel().rbl_histogram().at(8), 1u);
}

TEST(MemoryController, RowHitArrivingDuringServiceIsMerged) {
  ControllerHarness h;
  h.mc_.enqueue(h.read_at(0, 7, 0), h.now_);
  h.run(30);  // Row 7 is activated and the first read issues.
  h.mc_.enqueue(h.read_at(0, 7, 1), h.now_);  // Arrives while row 7 is open.
  h.run(2000);
  h.mc_.finalize();
  EXPECT_EQ(h.replies_, 2u);
  EXPECT_EQ(h.mc_.channel().activations(), 1u);
}

TEST(MemoryController, ConflictingRowsEachActivate) {
  ControllerHarness h;
  h.mc_.enqueue(h.read_at(3, 1, 0), h.now_);
  h.mc_.enqueue(h.read_at(3, 2, 0), h.now_);
  h.mc_.enqueue(h.read_at(3, 1, 1), h.now_);  // Same row as the first.
  h.run(3000);
  h.mc_.finalize();
  EXPECT_EQ(h.replies_, 3u);
  // FR-FCFS serves both row-1 requests before opening row 2.
  EXPECT_EQ(h.mc_.channel().activations(), 2u);
  EXPECT_EQ(h.mc_.channel().rbl_histogram().at(2), 1u);
  EXPECT_EQ(h.mc_.channel().rbl_histogram().at(1), 1u);
}

TEST(MemoryController, BanksServeInParallel) {
  ControllerHarness h;
  for (BankId b = 0; b < 4; ++b)
    for (std::uint32_t c = 0; c < 4; ++c) h.mc_.enqueue(h.read_at(b, 9, c), h.now_);
  h.run(4000);
  h.mc_.finalize();
  EXPECT_EQ(h.replies_, 16u);
  EXPECT_EQ(h.mc_.channel().activations(), 4u);  // One per bank.
}

TEST(MemoryController, WritesAreServedAndCounted) {
  ControllerHarness h;
  MemRequest w = h.read_at(1, 3, 0);
  w.kind = AccessKind::kWrite;
  h.mc_.enqueue(w, h.now_);
  h.mc_.enqueue(h.read_at(1, 3, 1), h.now_);
  h.run(3000);
  h.mc_.finalize();
  EXPECT_EQ(h.mc_.writes_served(), 1u);
  EXPECT_EQ(h.mc_.reads_served(), 1u);
  EXPECT_EQ(h.mc_.channel().activations(), 1u);
  // The row served a write: it must not appear in the read-only histogram.
  EXPECT_EQ(h.mc_.channel().rbl_readonly_histogram().total(), 0u);
}

TEST(MemoryController, StaggeredSameRowPairMergesWithinOpenWindow) {
  // Two same-row reads arriving 4 cycles apart must share one activation:
  // the open-row policy keeps the row open while its second request arrives.
  ControllerHarness h;
  h.mc_.enqueue(h.read_at(5, 11, 0), h.now_);
  h.run(4);
  h.mc_.enqueue(h.read_at(5, 11, 1), h.now_);
  h.run(2000);
  h.mc_.finalize();
  EXPECT_EQ(h.replies_, 2u);
  EXPECT_EQ(h.mc_.channel().activations(), 1u);
}

TEST(MemoryController, InterleavedStreamsKeepPerBankLocality) {
  // Two warps stream different rows of different banks, interleaved in
  // arrival order. Per-bank FR-FCFS must still serve each row's group with
  // one activation each.
  ControllerHarness h;
  for (std::uint32_t c = 0; c < 6; ++c) {
    h.mc_.enqueue(h.read_at(0, 4, c), h.now_);
    h.mc_.enqueue(h.read_at(1, 8, c), h.now_);
  }
  h.run(4000);
  h.mc_.finalize();
  EXPECT_EQ(h.replies_, 12u);
  EXPECT_EQ(h.mc_.channel().activations(), 2u);
}

// Regression (stale horizon memos): the controller memoizes per-bank retry
// and none-until horizons plus pass-level wakes under the DMS delay in force
// when they were recorded. Dyn-DMS moves that delay at window boundaries —
// including large downward jumps at search restarts — and a memo recorded
// under the old delay would otherwise park a newly-eligible bank past its
// legal service cycle. The fix clears every memo on a delay edge; with it,
// fast-path on/off runs are command-for-command identical. Small windows and
// frequent restarts make this fail deterministically on the stale-memo bug.
TEST(MemoryController, DelayChangeInvalidatesHorizonMemos) {
  GpuConfig cfg;
  cfg.scheme.profile_window = 64;
  cfg.scheme.windows_per_restart = 2;
  cfg.scheme.delay_step = 256;
  cfg.scheme.max_delay = 2048;
  cfg.validate();
  const AddressMapper mapper(cfg);
  const core::SchemeSpec spec =
      core::make_scheme_spec(core::SchemeKind::kDynDms, cfg.scheme);

  GpuConfig cfg_off = cfg;
  cfg_off.fast_path = false;

  auto make = [&](const GpuConfig& c) {
    std::unique_ptr<Scheduler> sched = core::make_scheduler(c, spec);
    return std::make_unique<MemoryController>(c, 0, mapper, std::move(sched),
                                              RowPolicy::kOpenRow);
  };
  auto fast = make(cfg);
  auto slow = make(cfg_off);

  // A steady precise row-miss stream (every request a fresh row) keeps banks
  // age-gated almost continuously, so delay edges land mid-gate.
  RequestId next_id = 1;
  std::uint32_t row = 1;
  Cycle now = 0;
  for (; now < 6000; ++now) {
    if (now % 37 == 0) {
      MemRequest r;
      r.id = next_id++;
      r.line_addr = mapper.compose(0, /*bank=*/row % 4, /*row=*/row, 0);
      r.kind = AccessKind::kRead;
      ++row;
      fast->enqueue(r, now);
      slow->enqueue(r, now);
    }
    fast->tick(now);
    slow->tick(now);
    while (auto rep = fast->pop_reply(now)) {
    }
    while (auto rep = slow->pop_reply(now)) {
    }
    ASSERT_EQ(fast->reads_served(), slow->reads_served()) << "cycle " << now;
    ASSERT_EQ(fast->channel().activations(), slow->channel().activations())
        << "cycle " << now;
  }
  fast->finalize();
  slow->finalize();
  EXPECT_GT(fast->reads_served(), 0u);
  EXPECT_EQ(fast->read_latency().count(), slow->read_latency().count());
  EXPECT_DOUBLE_EQ(fast->read_latency().mean(), slow->read_latency().mean());
}

}  // namespace
}  // namespace lazydram
