// Crossbar interconnect (Table I: one crossbar per direction between the 30
// SMs and the 6 memory partitions).
//
// Model: per-source FIFO input queues (head-of-line blocking, as in a real
// input-queued switch), one packet accepted per destination per core cycle
// with round-robin arbitration across sources, and a fixed traversal latency.
// The same class serves both directions (SM->MC requests, MC->SM replies).
//
// Arbitration costs one head-mask probe per destination plus the grants, not
// a sources x destinations scan: each destination keeps a bitmask of the
// sources whose head-of-line packet targets it (64-bit words, any source
// count), and grants the first set bit at or after its round-robin pointer.
// Destinations arbitrate in index order, and a granted source's next head
// joins its destination's mask at once, so a higher-numbered destination can
// take it in the same cycle.
//
// Every per-cycle loop visits only destinations with work. An
// active-destination mask (bit d set iff some head-of-line packet targets d)
// drives tick(), re-read after each grant so a head that a grant exposes for
// a later destination is still arbitrated this cycle. An output-occupancy
// mask (bit d set iff d's landing buffer holds a packet) drives drain(), and
// packet counts answer idle() in O(1). tick() also records which sources it
// granted, so a blocked sender can sleep until its input queue moves.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "mem/request.hpp"

namespace lazydram::icnt {

/// One 128B-granularity message. Requests travel SM -> partition; replies
/// travel partition -> SM. Unused fields are zero for a given direction.
struct Packet {
  RequestId id = 0;
  Addr line_addr = 0;
  AccessKind kind = AccessKind::kRead;
  bool approximable = false;  ///< Request: annotated-approximable load.
  bool approximate = false;   ///< Reply: value was VP-synthesized.
  SmId src_sm = 0;            ///< Originating SM (for reply routing).
  TenantId tenant = 0;        ///< Owning client (0 in single-tenant runs).

  // Lifecycle-tracing stamps (core cycles; observational only, never
  // consulted by the switch or the receivers' logic).
  Cycle inject_cycle = 0;  ///< Request: when the SM pushed the primary load.
  Cycle eject_cycle = 0;   ///< Request: when the partition popped it.
  RequestId parent = 0;    ///< Reply: MemRequest id this packet answers.
};

class Crossbar {
 public:
  /// `output_queue_capacity` bounds the per-destination landing buffer: a
  /// destination stops granting new packets while its buffer is full, so
  /// backpressure propagates through the switch to the sources instead of
  /// packets piling up invisibly (credit-based flow control).
  Crossbar(unsigned num_sources, unsigned num_destinations, unsigned latency,
           std::size_t input_queue_capacity, std::size_t output_queue_capacity = 8);

  /// True if source `src` can inject one more packet this cycle.
  bool can_push(unsigned src) const;

  /// Injects a packet from `src` toward `dst`. Precondition: can_push(src).
  void push(unsigned src, unsigned dst, const Packet& packet);

  /// Advances one core cycle: each destination accepts at most one
  /// head-of-line packet (round-robin over sources); accepted packets become
  /// poppable `latency` cycles later.
  void tick(Cycle now);

  /// Sources granted by the last tick(): bit s of word s / 64 is set iff a
  /// packet left source s's input queue.
  const std::vector<std::uint64_t>& granted() const { return granted_; }

  /// Next packet that has arrived at `dst` by `now`, if any.
  std::optional<Packet> pop(unsigned dst, Cycle now);

  /// Pops every packet that has arrived by `now` and passes it to
  /// `deliver(dst, packet)`: destinations in ascending order, each one's
  /// packets in arrival order, which is the sequence pop() on every
  /// destination yields. Visits only destinations holding a packet.
  /// `deliver` must not call back into the switch.
  template <class Deliver>
  void drain(Cycle now, Deliver&& deliver);

  /// True when no packet is anywhere in the switch.
  bool idle() const { return queued_ == 0 && landed_ == 0; }

  std::uint64_t delivered() const { return delivered_; }

 private:
  struct InFlight {
    Packet packet;
    Cycle ready = 0;
  };
  struct InputEntry {
    Packet packet;
    unsigned dst = 0;
  };

  unsigned num_src_;
  unsigned num_dst_;
  unsigned latency_;
  std::size_t capacity_;
  std::size_t out_capacity_;

  /// Marks `src`'s head-of-line packet in its destination's head mask.
  void mark_head(unsigned src);
  /// First source at or after `start` (wrapping) whose head targets `dst`,
  /// or -1 if none does.
  int first_head(unsigned dst, unsigned start) const;
  /// Grants `dst` its round-robin head if it has output credit.
  void arbitrate(unsigned dst, Cycle now);
  /// Removes the front of `dst`'s landing buffer.
  void pop_front_output(unsigned dst);

  static void set_bit(std::vector<std::uint64_t>& mask, unsigned i) {
    mask[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  static void clear_bit(std::vector<std::uint64_t>& mask, unsigned i) {
    mask[i / 64] &= ~(std::uint64_t{1} << (i % 64));
  }

  std::vector<std::deque<InputEntry>> inputs_;   ///< Per source.
  std::vector<std::deque<InFlight>> outputs_;    ///< Per destination.
  std::vector<unsigned> rr_;                     ///< Per destination arbiter state.
  unsigned mask_words_;                          ///< 64-bit words per head mask.
  /// Per destination, `mask_words_` words: bit s set iff source s's
  /// head-of-line packet targets that destination.
  std::vector<std::uint64_t> head_mask_;
  /// Bit d set iff destination d's head mask is non-empty.
  std::vector<std::uint64_t> active_dst_;
  /// Bit d set iff outputs_[d] is non-empty.
  std::vector<std::uint64_t> occupied_dst_;
  std::vector<std::uint64_t> granted_;  ///< See granted().
  std::uint64_t delivered_ = 0;
  std::uint64_t queued_ = 0;  ///< Packets waiting in input queues.
  std::uint64_t landed_ = 0;  ///< Packets in output landing buffers.
};

template <class Deliver>
void Crossbar::drain(Cycle now, Deliver&& deliver) {
  for (unsigned w = 0; w < occupied_dst_.size(); ++w) {
    for (std::uint64_t bits = occupied_dst_[w]; bits != 0; bits &= bits - 1) {
      const unsigned dst = w * 64 + static_cast<unsigned>(std::countr_zero(bits));
      auto& q = outputs_[dst];
      while (!q.empty() && q.front().ready <= now) {
        const Packet p = q.front().packet;
        pop_front_output(dst);
        deliver(dst, p);
      }
    }
  }
}

}  // namespace lazydram::icnt
