// ProcessSet: a set over Omega = {p_0 .. p_{n-1}}.
//
// Failure detector outputs (suspect lists), alive-tags on messages, and the
// correct/crashed partitions of failure patterns are all subsets of Omega.
// The paper's n is small but unbounded, so the set is a bitset of 64-bit
// words with value semantics and set-algebra operators. A universe of at
// most 64 processes keeps its one word inline, so building, copying and
// combining such sets never touches the heap; larger universes keep their
// words in a vector.
//
// The simulator queries, builds and combines these sets several times per
// step, so the single-member operations, count() and complement() are
// defined inline here: the library is built without LTO, and as calls
// into process_set.cpp they cost more than the word operations they do.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace rfd {

class ProcessSet {
 public:
  /// Empty set over a universe of `universe_size` processes.
  explicit ProcessSet(ProcessId universe_size = 0)
      : universe_size_(universe_size) {
    RFD_REQUIRE(universe_size >= 0);
    if (universe_size > kInlineBits) heap_words_.assign(num_words(), 0);
  }

  /// Full set {0 .. universe_size-1}.
  static ProcessSet full(ProcessId universe_size);

  /// Set containing exactly the given members.
  static ProcessSet of(ProcessId universe_size,
                       std::initializer_list<ProcessId> members);

  ProcessId universe_size() const { return universe_size_; }

  bool contains(ProcessId p) const {
    if (p < 0 || p >= universe_size_) return false;
    const auto idx = static_cast<std::size_t>(p);
    return (data()[idx / 64] >> (idx % 64)) & 1u;
  }
  void insert(ProcessId p) {
    RFD_REQUIRE_MSG(p >= 0 && p < universe_size_,
                    "process id outside the universe");
    const auto idx = static_cast<std::size_t>(p);
    data()[idx / 64] |= std::uint64_t{1} << (idx % 64);
  }
  void erase(ProcessId p) {
    if (p < 0 || p >= universe_size_) return;
    const auto idx = static_cast<std::size_t>(p);
    data()[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
  }
  void clear();

  /// Number of members.
  ProcessId count() const {
    const std::uint64_t* words = data();
    int total = 0;
    for (std::size_t i = 0; i < num_words(); ++i) {
      total += std::popcount(words[i]);
    }
    return total;
  }
  bool empty() const { return count() == 0; }

  /// Lowest-id member, or -1 when empty. Used for deterministic choice
  /// rules ("first non-bottom component", "smallest non-suspected process").
  ProcessId min() const;
  /// Highest-id member, or -1 when empty.
  ProcessId max() const;

  /// Members in increasing id order.
  std::vector<ProcessId> members() const;

  /// Set algebra. Operands must share the same universe size.
  ProcessSet& operator|=(const ProcessSet& other);
  ProcessSet& operator&=(const ProcessSet& other);
  ProcessSet& operator-=(const ProcessSet& other);
  friend ProcessSet operator|(ProcessSet a, const ProcessSet& b) {
    a |= b;
    return a;
  }
  friend ProcessSet operator&(ProcessSet a, const ProcessSet& b) {
    a &= b;
    return a;
  }
  friend ProcessSet operator-(ProcessSet a, const ProcessSet& b) {
    a -= b;
    return a;
  }

  /// Complement within the universe.
  ProcessSet complement() const {
    ProcessSet out(*this);
    std::uint64_t* words = out.data();
    for (std::size_t i = 0; i < num_words(); ++i) words[i] = ~words[i];
    out.mask_tail();
    return out;
  }

  bool is_subset_of(const ProcessSet& other) const;
  bool intersects(const ProcessSet& other) const;

  bool operator==(const ProcessSet& other) const;
  bool operator!=(const ProcessSet& other) const { return !(*this == other); }

  /// Stable 64-bit hash (for dedup in history audits).
  std::uint64_t hash() const;

  /// "{p0,p3,p5}" rendering for logs and tables.
  std::string to_string() const;

  /// Iterates members in increasing order without materializing a vector.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* words = data();
    for (std::size_t w = 0; w < num_words(); ++w) {
      std::uint64_t word = words[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<ProcessId>(w * 64 + static_cast<std::size_t>(bit)));
        word &= word - 1;
      }
    }
  }

 private:
  static constexpr ProcessId kInlineBits = 64;

  std::size_t num_words() const {
    return static_cast<std::size_t>((universe_size_ + 63) / 64);
  }
  std::uint64_t* data() {
    return universe_size_ <= kInlineBits ? &inline_word_ : heap_words_.data();
  }
  const std::uint64_t* data() const {
    return universe_size_ <= kInlineBits ? &inline_word_ : heap_words_.data();
  }
  /// Clears the bits of the last word that lie beyond the universe.
  void mask_tail() {
    const auto used = static_cast<unsigned>(universe_size_ % 64);
    if (used != 0) {
      data()[num_words() - 1] &= (std::uint64_t{1} << used) - 1;
    }
  }
  void check_universe(const ProcessSet& other) const;

  ProcessId universe_size_;
  std::uint64_t inline_word_ = 0;          // the bits when universe <= 64
  std::vector<std::uint64_t> heap_words_;  // the words when universe > 64
};

}  // namespace rfd
