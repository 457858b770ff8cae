// ProcessSet: a set over Omega = {p_0 .. p_{n-1}}.
//
// Failure detector outputs (suspect lists), alive-tags on messages, and the
// correct/crashed partitions of failure patterns are all subsets of Omega.
// The paper's n is small but unbounded, so the set is a bitset of 64-bit
// words with value semantics and set-algebra operators. A universe of at
// most 64 processes keeps its one word inline, so building, copying and
// combining such sets never touches the heap; larger universes keep their
// words in a vector.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rfd {

class ProcessSet {
 public:
  /// Empty set over a universe of `universe_size` processes.
  explicit ProcessSet(ProcessId universe_size = 0);

  /// Full set {0 .. universe_size-1}.
  static ProcessSet full(ProcessId universe_size);

  /// Set containing exactly the given members.
  static ProcessSet of(ProcessId universe_size,
                       std::initializer_list<ProcessId> members);

  ProcessId universe_size() const { return universe_size_; }

  bool contains(ProcessId p) const;
  void insert(ProcessId p);
  void erase(ProcessId p);
  void clear();

  /// Number of members.
  ProcessId count() const;
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
  ProcessSet complement() const;

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
  void mask_tail();
  void check_universe(const ProcessSet& other) const;

  ProcessId universe_size_;
  std::uint64_t inline_word_ = 0;          // the bits when universe <= 64
  std::vector<std::uint64_t> heap_words_;  // the words when universe > 64
};

}  // namespace rfd
