#include "icnt/crossbar.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"

namespace lazydram::icnt {

Crossbar::Crossbar(unsigned num_sources, unsigned num_destinations, unsigned latency,
                   std::size_t input_queue_capacity, std::size_t output_queue_capacity)
    : num_src_(num_sources),
      num_dst_(num_destinations),
      latency_(latency),
      capacity_(input_queue_capacity),
      out_capacity_(output_queue_capacity),
      inputs_(num_sources),
      outputs_(num_destinations),
      rr_(num_destinations, 0),
      mask_words_((num_sources + 63) / 64),
      head_mask_(static_cast<std::size_t>(num_destinations) * mask_words_, 0),
      active_dst_((num_destinations + 63) / 64, 0),
      occupied_dst_((num_destinations + 63) / 64, 0),
      granted_(mask_words_, 0) {
  LD_ASSERT(num_sources > 0 && num_destinations > 0 && input_queue_capacity > 0);
  LD_ASSERT(output_queue_capacity > 0);
}

bool Crossbar::can_push(unsigned src) const {
  LD_ASSERT(src < num_src_);
  return inputs_[src].size() < capacity_;
}

void Crossbar::push(unsigned src, unsigned dst, const Packet& packet) {
  LD_ASSERT_MSG(can_push(src), "push into full crossbar input queue");
  LD_ASSERT(dst < num_dst_);
  inputs_[src].push_back(InputEntry{packet, dst});
  if (inputs_[src].size() == 1) mark_head(src);
  ++queued_;
}

void Crossbar::mark_head(unsigned src) {
  const unsigned dst = inputs_[src].front().dst;
  head_mask_[dst * mask_words_ + src / 64] |= std::uint64_t{1} << (src % 64);
  set_bit(active_dst_, dst);
}

int Crossbar::first_head(unsigned dst, unsigned start) const {
  const std::uint64_t* mask = &head_mask_[dst * mask_words_];
  const unsigned first_word = start / 64;
  // Bits at or after `start` in its word, then the following words, then
  // (k == mask_words_) the start word again for the bits below `start`.
  std::uint64_t bits = mask[first_word] & (~std::uint64_t{0} << (start % 64));
  unsigned w = first_word;
  for (unsigned k = 0;;) {
    if (bits != 0) return static_cast<int>(w * 64 + std::countr_zero(bits));
    if (++k > mask_words_) return -1;
    if (++w == mask_words_) w = 0;
    bits = mask[w];
  }
}

void Crossbar::arbitrate(unsigned dst, Cycle now) {
  if (outputs_[dst].size() >= out_capacity_) return;  // No credit: stall.
  const int found = first_head(dst, rr_[dst]);
  LD_ASSERT(found >= 0);
  const unsigned src = static_cast<unsigned>(found);
  auto& q = inputs_[src];
  outputs_[dst].push_back(InFlight{q.front().packet, now + latency_});
  set_bit(occupied_dst_, dst);
  ++landed_;
  q.pop_front();
  --queued_;
  set_bit(granted_, src);
  std::uint64_t* mask = &head_mask_[dst * mask_words_];
  mask[src / 64] &= ~(std::uint64_t{1} << (src % 64));
  if (std::all_of(mask, mask + mask_words_, [](std::uint64_t m) { return m == 0; }))
    clear_bit(active_dst_, dst);
  if (!q.empty()) mark_head(src);  // Visible to later destinations this cycle.
  rr_[dst] = src + 1 == num_src_ ? 0 : src + 1;
}

void Crossbar::tick(Cycle now) {
  std::fill(granted_.begin(), granted_.end(), 0);
  if (queued_ == 0) return;
  // Each destination grants at most one source per cycle, taking the first
  // head addressed to it at or after its own pointer (iSLIP-style fairness).
  // Destinations go in index order; after each grant the live mask word is
  // re-read above the current bit, because the grant may have exposed a
  // head for a later destination.
  for (unsigned w = 0; w < active_dst_.size(); ++w) {
    std::uint64_t bits = active_dst_[w];
    while (bits != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
      arbitrate(w * 64 + b, now);
      bits = active_dst_[w] & ~((std::uint64_t{2} << b) - 1);  // Bits above b.
    }
  }
}

void Crossbar::pop_front_output(unsigned dst) {
  auto& q = outputs_[dst];
  q.pop_front();
  --landed_;
  ++delivered_;
  if (q.empty()) clear_bit(occupied_dst_, dst);
}

std::optional<Packet> Crossbar::pop(unsigned dst, Cycle now) {
  LD_ASSERT(dst < num_dst_);
  auto& q = outputs_[dst];
  if (q.empty() || q.front().ready > now) return std::nullopt;
  Packet p = q.front().packet;
  pop_front_output(dst);
  return p;
}

}  // namespace lazydram::icnt
