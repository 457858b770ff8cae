// Wire codec for gossip digest payloads.
//
// A heartbeat message carries the sender's own counter plus up to
// digest_size piggybacked (peer id, counter) entries. Shipping those as
// raw (int32, int32) pairs makes payload bytes scale with both the
// digest size and - through the id values - log2(n); at n=10k a single
// digest is kilobytes. The codec instead sorts entries by id and
// delta-compresses the id stream (LEB128 varints of the gaps), so a
// digest that samples k of n ids costs ~log2(n/k) bits per id: with the
// bench's digest_size = n/8 the gaps average 8 and the id stream is one
// byte per entry regardless of n. Counters are plain varints (they are
// small for most of a run and bounded by one per heartbeat interval).
//
// Sorting by id also helps the receiver, whose per-peer arrays are cold
// at every message: each of its passes over a payload (the counter
// filter, the prefetch of the kept entries' slots, the observe loop; see
// ClusterEngine::deliver) walks those arrays in ascending index order,
// so consecutive entries share cache lines and the hardware prefetcher
// sees a forward stream. It is also lossless: duplicate ids (a
// hot-queue entry also hit by the rotation cursor) are kept as zero
// gaps, so the decoded entry count and multiset match the selection
// exactly.
//
// The codec owns that order. The engine passes a selection as
// ClusterNode::select_digest produced it, and DigestEncoder orders it
// with two bitmaps instead of a comparison sort. select_digest emits
// each id at most twice - the hot queue holds an id at most once and
// the rotation pass visits each id at most once - so one bitmap holds
// the first copies and a second the repeats. A third copy, which only a
// hand-built selection can contain, falls back to std::sort +
// encode_digest; either path writes the same bytes.
//
// DigestReader is the one decoder. It is bounds-checked and returns
// false instead of asserting, because the engine decodes bytes that may
// have crossed a real socket and drops a payload the reader rejects.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace rfd::cluster {

inline void put_varint(std::vector<std::uint8_t>& out, std::uint32_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v | 0x80u));
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Raw-cursor variant for the hot encode path: the caller guarantees at
/// least 5 writable bytes at `p`.
inline std::uint8_t* put_varint_raw(std::uint8_t* p, std::uint32_t v) {
  while (v >= 0x80u) {
    *p++ = static_cast<std::uint8_t>(v | 0x80u);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Sequential reader over one encoded payload: header() once, then
/// entry() up to `count` times. Each call returns false - never
/// asserts, never overflows - on bytes the encoder cannot produce:
///   - a truncated stream, or a count that cannot fit in the bytes
///     left (every entry takes at least 2) or exceeds two copies of
///     each of `max_nodes` ids;
///   - a varint that does not fit 32 bits (more than 5 bytes, or a
///     fifth byte above 0x0f);
///   - an id gap that would leave [0, max_nodes), checked in unsigned
///     arithmetic before the add.
class DigestReader {
 public:
  DigestReader(const std::uint8_t* data, std::size_t size,
               std::int32_t max_nodes)
      : p_(data),
        end_(data + size),
        max_nodes_(max_nodes > 0 ? static_cast<std::uint32_t>(max_nodes)
                                 : 0u) {}

  /// Reads the sender's own counter and the entry count.
  bool header(std::uint32_t& own, std::uint32_t& count) {
    if (!varint(own) || !varint(count)) return false;
    return count <= static_cast<std::size_t>(end_ - p_) / 2 &&
           count <= std::uint64_t{2} * max_nodes_;
  }

  /// Reads the next entry: `id` is the running sum of the gaps.
  bool entry(std::int32_t& id, std::uint32_t& counter) {
    std::uint32_t gap = 0;
    if (!varint(gap) || gap >= max_nodes_ - id_ || !varint(counter)) {
      return false;
    }
    id_ += gap;
    id = static_cast<std::int32_t>(id_);
    return true;
  }

  bool done() const { return p_ == end_; }

 private:
  bool varint(std::uint32_t& out) {
    std::uint32_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (p_ == end_) return false;
      const std::uint32_t byte = *p_++;
      if (shift == 28 && byte > 0x0fu) return false;  // beyond 32 bits
      value |= (byte & 0x7fu) << shift;
      if (byte < 0x80u) {
        out = value;
        return true;
      }
    }
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::uint32_t max_nodes_;
  std::uint32_t id_ = 0;  // last decoded id (the gaps' base)
};

/// Encodes one message payload: the sender's counter, the entry count,
/// then (id gap, counter) pairs for `ids` (which must be sorted
/// ascending; duplicates allowed). `counter_of` maps an id to the
/// counter value to ship.
template <typename CounterOf>
void encode_digest(std::uint32_t own_counter,
                   const std::vector<std::int32_t>& ids,
                   CounterOf&& counter_of, std::vector<std::uint8_t>& out) {
  // Size for the 5-bytes-per-varint worst case up front, then write
  // through a raw cursor and trim: one bounds decision per message
  // instead of one per byte (this encode runs once per heartbeat sent
  // and dominated the send path when it grew by push_back).
  const std::size_t base = out.size();
  out.resize(base + 10 + ids.size() * 10);
  std::uint8_t* p = out.data() + base;
  p = put_varint_raw(p, own_counter);
  p = put_varint_raw(p, static_cast<std::uint32_t>(ids.size()));
  std::int32_t prev = 0;
  for (const std::int32_t id : ids) {
    p = put_varint_raw(p, static_cast<std::uint32_t>(id - prev));
    p = put_varint_raw(p, static_cast<std::uint32_t>(counter_of(id)));
    prev = id;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// Sort-free encode_digest for unsorted selections over ids in
/// [0, max_nodes): writes exactly the bytes encode_digest writes for
/// the std::sort-ed selection. Owns two scratch bitmaps, interleaved
/// word by word so an id's two bits share a cache line, that are
/// all-zero between calls; one encoder serves every message of one
/// thread.
class DigestEncoder {
 public:
  explicit DigestEncoder(std::int32_t max_nodes)
      : max_nodes_(max_nodes > 0 ? static_cast<std::uint32_t>(max_nodes)
                                 : 0u),
        bits_((max_nodes_ + 63) / 64 * 2, 0) {}

  template <typename CounterOf>
  void encode(std::uint32_t own_counter,
              const std::vector<std::int32_t>& ids, CounterOf&& counter_of,
              std::vector<std::uint8_t>& out) {
    for (const std::int32_t id : ids) {
      RFD_REQUIRE(static_cast<std::uint32_t>(id) < max_nodes_);
      std::uint64_t* word = &bits_[(static_cast<std::size_t>(id) >> 6) * 2];
      const std::uint64_t bit = std::uint64_t{1} << (id & 63);
      if ((word[0] & bit) == 0) {
        word[0] |= bit;
      } else if ((word[1] & bit) == 0) {
        word[1] |= bit;
      } else {
        encode_sorted(own_counter, ids, counter_of, out);
        return;
      }
    }
    const std::size_t base = out.size();
    out.resize(base + 10 + ids.size() * 10);
    std::uint8_t* p = out.data() + base;
    p = put_varint_raw(p, own_counter);
    p = put_varint_raw(p, static_cast<std::uint32_t>(ids.size()));
    std::uint32_t prev = 0;
    for (std::size_t w = 0; w < bits_.size() / 2; ++w) {
      std::uint64_t word = bits_[2 * w];
      if (word == 0) continue;
      const std::uint64_t repeats = bits_[2 * w + 1];
      bits_[2 * w] = 0;
      bits_[2 * w + 1] = 0;
      do {
        const int b = std::countr_zero(word);
        const auto id = static_cast<std::uint32_t>((w << 6) + b);
        const auto counter = static_cast<std::uint32_t>(
            counter_of(static_cast<std::int32_t>(id)));
        p = put_varint_raw(p, id - prev);
        p = put_varint_raw(p, counter);
        if (((repeats >> b) & 1u) != 0) {
          *p++ = 0;  // the repeat's zero gap
          p = put_varint_raw(p, counter);
        }
        prev = id;
        word &= word - 1;
      } while (word != 0);
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
  }

 private:
  /// The third-copy fallback: re-zero the bitmaps, then sort a copy.
  template <typename CounterOf>
  void encode_sorted(std::uint32_t own_counter,
                     const std::vector<std::int32_t>& ids,
                     CounterOf&& counter_of, std::vector<std::uint8_t>& out) {
    std::fill(bits_.begin(), bits_.end(), 0);
    sorted_.assign(ids.begin(), ids.end());
    std::sort(sorted_.begin(), sorted_.end());
    encode_digest(own_counter, sorted_, counter_of, out);
  }

  std::uint32_t max_nodes_;
  /// Two words per 64 ids: [2w] marks ids seen once, [2w + 1] twice.
  std::vector<std::uint64_t> bits_;
  std::vector<std::int32_t> sorted_;  // the fallback's sorted copy
};

}  // namespace rfd::cluster
