// Crossbar tests: delivery with latency, per-destination serialization,
// round-robin fairness, input capacity, credit-based output backpressure,
// same-cycle re-grant of a source's next head, the granted-source report, and
// a seeded differential run against a naive O(sources x destinations)
// reference arbiter that also checks the occupancy-driven drain.
#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>
#include <vector>

#include "icnt/crossbar.hpp"

namespace lazydram::icnt {
namespace {

Packet pkt(RequestId id, SmId src = 0) {
  Packet p;
  p.id = id;
  p.src_sm = src;
  return p;
}

TEST(Crossbar, DeliversAfterLatency) {
  Crossbar xbar(2, 2, /*latency=*/3, 4);
  xbar.push(0, 1, pkt(7));
  xbar.tick(10);
  EXPECT_FALSE(xbar.pop(1, 12).has_value());  // Not yet.
  const auto p = xbar.pop(1, 13);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->id, 7u);
  EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, OnePacketPerDestinationPerCycle) {
  Crossbar xbar(3, 1, 0, 4);
  for (unsigned s = 0; s < 3; ++s) xbar.push(s, 0, pkt(s));
  xbar.tick(0);
  unsigned delivered = 0;
  while (xbar.pop(0, 0)) ++delivered;
  EXPECT_EQ(delivered, 1u);
  xbar.tick(1);
  xbar.tick(2);
  while (xbar.pop(0, 2)) ++delivered;
  EXPECT_EQ(delivered, 3u);
}

TEST(Crossbar, RoundRobinAcrossSources) {
  Crossbar xbar(2, 1, 0, 4);
  xbar.push(0, 0, pkt(10));
  xbar.push(0, 0, pkt(11));
  xbar.push(1, 0, pkt(20));
  xbar.tick(0);
  xbar.tick(1);
  xbar.tick(2);
  std::vector<RequestId> order;
  while (auto p = xbar.pop(0, 2)) order.push_back(p->id);
  ASSERT_EQ(order.size(), 3u);
  // Fairness: source 1 is granted before source 0's second packet.
  EXPECT_EQ(order[1], 20u);
}

TEST(Crossbar, InputCapacityBackpressure) {
  Crossbar xbar(1, 1, 0, /*input capacity=*/2);
  xbar.push(0, 0, pkt(1));
  xbar.push(0, 0, pkt(2));
  EXPECT_FALSE(xbar.can_push(0));
  xbar.tick(0);  // Drains one.
  EXPECT_TRUE(xbar.can_push(0));
}

TEST(Crossbar, OutputCreditStallsGrants) {
  Crossbar xbar(1, 1, 0, 8, /*output capacity=*/2);
  for (RequestId i = 1; i <= 4; ++i) xbar.push(0, 0, pkt(i));
  xbar.tick(0);
  xbar.tick(1);
  xbar.tick(2);  // Output buffer full (2): no further grants.
  EXPECT_FALSE(xbar.idle());     // Two packets still wait at the input...
  EXPECT_TRUE(xbar.can_push(0));  // ...which has room for six more.
  unsigned drained = 0;
  while (xbar.pop(0, 2)) ++drained;
  EXPECT_EQ(drained, 2u);  // Only the credited packets crossed.
  xbar.tick(3);
  xbar.tick(4);
  while (xbar.pop(0, 4)) ++drained;
  EXPECT_EQ(drained, 4u);
  EXPECT_TRUE(xbar.idle());
}

TEST(Crossbar, NextHeadGrantedSameCycleByLaterDestination) {
  // Destinations arbitrate in index order within a tick. Once destination 0
  // takes source 0's head, the next head (toward destination 1) is visible
  // to destination 1 in the same tick.
  Crossbar fwd(1, 2, 0, 4);
  fwd.push(0, 0, pkt(1));
  fwd.push(0, 1, pkt(2));
  fwd.tick(0);
  ASSERT_TRUE(fwd.pop(0, 0).has_value());
  ASSERT_TRUE(fwd.pop(1, 0).has_value());
  EXPECT_TRUE(fwd.idle());

  // Reversed: destination 0 has already arbitrated when destination 1 takes
  // the head, so the next head waits for the following tick.
  Crossbar rev(1, 2, 0, 4);
  rev.push(0, 1, pkt(1));
  rev.push(0, 0, pkt(2));
  rev.tick(0);
  const auto first = rev.pop(1, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1u);
  EXPECT_FALSE(rev.pop(0, 0).has_value());
  rev.tick(1);
  const auto second = rev.pop(0, 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2u);
  EXPECT_TRUE(rev.idle());
}

/// The arbiter spelled out: every destination with credit scans every
/// source from its round-robin pointer and takes the first head-of-line
/// packet addressed to it.
class ReferenceCrossbar {
 public:
  ReferenceCrossbar(unsigned num_src, unsigned num_dst, unsigned latency,
                    std::size_t in_cap, std::size_t out_cap)
      : latency_(latency), in_cap_(in_cap), out_cap_(out_cap), inputs_(num_src),
        outputs_(num_dst), rr_(num_dst, 0) {}

  bool can_push(unsigned src) const { return inputs_[src].size() < in_cap_; }
  void push(unsigned src, unsigned dst, const Packet& p) {
    inputs_[src].push_back({p, dst});
  }
  void tick(Cycle now) {
    const unsigned n = static_cast<unsigned>(inputs_.size());
    for (unsigned dst = 0; dst < outputs_.size(); ++dst) {
      if (outputs_[dst].size() >= out_cap_) continue;
      for (unsigned i = 0; i < n; ++i) {
        const unsigned src = (rr_[dst] + i) % n;
        auto& q = inputs_[src];
        if (q.empty() || q.front().second != dst) continue;
        outputs_[dst].push_back({q.front().first, now + latency_});
        q.pop_front();
        rr_[dst] = (src + 1) % n;
        break;
      }
    }
  }
  std::optional<Packet> pop(unsigned dst, Cycle now) {
    auto& q = outputs_[dst];
    if (q.empty() || q.front().second > now) return std::nullopt;
    const Packet p = q.front().first;
    q.pop_front();
    return p;
  }
  bool idle() const {
    for (const auto& q : inputs_)
      if (!q.empty()) return false;
    for (const auto& q : outputs_)
      if (!q.empty()) return false;
    return true;
  }

 private:
  unsigned latency_;
  std::size_t in_cap_;
  std::size_t out_cap_;
  std::vector<std::deque<std::pair<Packet, unsigned>>> inputs_;
  std::vector<std::deque<std::pair<Packet, Cycle>>> outputs_;
  std::vector<unsigned> rr_;
};

TEST(Crossbar, MatchesReferenceArbiterOnRandomTraffic) {
  std::mt19937_64 rng(0x1CE5EED);
  const auto below = [&rng](unsigned n) { return static_cast<unsigned>(rng() % n); };
  for (unsigned trial = 0; trial < 90; ++trial) {
    // Every third trial spans several 64-bit source-mask words, every fifth
    // several active-destination and occupancy words, and every seventh is
    // the reply crossbar's shape (6 partitions -> 30 SMs).
    unsigned num_src = trial % 3 == 0 ? 65 + below(100) : 1 + below(64);
    unsigned num_dst = trial % 5 == 0 ? 65 + below(100) : 1 + below(trial % 2 == 0 ? 8 : 40);
    if (trial % 7 == 0) {
      num_src = 6;
      num_dst = 30;
    }
    const unsigned latency = below(6);
    const std::size_t in_cap = 1 + below(8);
    const std::size_t out_cap = 1 + below(8);
    // A hot destination makes sources contend and stall at their heads.
    const unsigned hot = below(num_dst);
    Crossbar xbar(num_src, num_dst, latency, in_cap, out_cap);
    ReferenceCrossbar ref(num_src, num_dst, latency, in_cap, out_cap);
    RequestId next_id = 0;
    std::uint64_t popped = 0;
    const auto compare_state = [&](const char* after) {
      ASSERT_EQ(xbar.idle(), ref.idle()) << "trial " << trial << " after " << after;
      for (unsigned s = 0; s < num_src; ++s)
        ASSERT_EQ(xbar.can_push(s), ref.can_push(s))
            << "trial " << trial << " src " << s << " after " << after;
    };
    Cycle now = 0;
    for (unsigned cycle = 0; cycle < 300; ++cycle) {
      const unsigned pushes = below(num_src + 1);
      for (unsigned k = 0; k < pushes; ++k) {
        const unsigned src = below(num_src);
        if (!ref.can_push(src)) continue;
        const unsigned dst = below(3) == 0 ? hot : below(num_dst);
        const Packet p = pkt(++next_id, static_cast<SmId>(src));
        xbar.push(src, dst, p);
        ref.push(src, dst, p);
        compare_state("push");
        if (HasFatalFailure()) return;
      }
      xbar.tick(now);
      ref.tick(now);
      compare_state("tick");
      if (HasFatalFailure()) return;
      if (below(2) == 0) {
        // Occupancy-driven drain vs pop() on every destination in order.
        std::vector<std::pair<unsigned, RequestId>> got, want;
        xbar.drain(now, [&got](unsigned d, const Packet& p) { got.emplace_back(d, p.id); });
        for (unsigned d = 0; d < num_dst; ++d)
          while (const auto p = ref.pop(d, now)) want.emplace_back(d, p->id);
        ASSERT_EQ(got, want) << "trial " << trial << " cycle " << now;
        popped += got.size();
        compare_state("drain");
        if (HasFatalFailure()) return;
      } else {
        for (unsigned d = 0; d < num_dst; ++d) {
          if (below(4) == 0) continue;  // Leave some outputs undrained.
          for (;;) {
            const auto got = xbar.pop(d, now);
            const auto want = ref.pop(d, now);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "trial " << trial << " dst " << d << " cycle " << now;
            if (!got) break;
            ASSERT_EQ(got->id, want->id) << "trial " << trial << " dst " << d;
            ++popped;
          }
          compare_state("pop");
          if (HasFatalFailure()) return;
        }
      }
      now += below(8) == 0 ? 1 + below(10) : 1;
    }
    EXPECT_EQ(xbar.delivered(), popped);
  }
}

TEST(Crossbar, GrantedReportsSourcesOfLastTick) {
  Crossbar xbar(70, 2, 0, 4);
  xbar.push(3, 0, pkt(1));
  xbar.push(67, 1, pkt(2));
  xbar.push(67, 1, pkt(3));
  xbar.tick(0);
  EXPECT_EQ(xbar.granted(), (std::vector<std::uint64_t>{std::uint64_t{1} << 3,
                                                        std::uint64_t{1} << 3}));
  xbar.tick(1);
  EXPECT_EQ(xbar.granted(), (std::vector<std::uint64_t>{0, std::uint64_t{1} << 3}));
  xbar.tick(2);
  EXPECT_EQ(xbar.granted(), (std::vector<std::uint64_t>{0, 0}));
}

TEST(Crossbar, DeliveredCounter) {
  Crossbar xbar(1, 1, 0, 4);
  xbar.push(0, 0, pkt(1));
  xbar.tick(0);
  xbar.pop(0, 0);
  EXPECT_EQ(xbar.delivered(), 1u);
}

}  // namespace
}  // namespace lazydram::icnt
