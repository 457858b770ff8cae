#include "common/process_set.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace rfd {

ProcessSet ProcessSet::full(ProcessId universe_size) {
  ProcessSet s(universe_size);
  std::uint64_t* words = s.data();
  for (std::size_t i = 0; i < s.num_words(); ++i) words[i] = ~std::uint64_t{0};
  s.mask_tail();
  return s;
}

ProcessSet ProcessSet::of(ProcessId universe_size,
                          std::initializer_list<ProcessId> members) {
  ProcessSet s(universe_size);
  for (ProcessId p : members) {
    s.insert(p);
  }
  return s;
}

void ProcessSet::clear() {
  std::uint64_t* words = data();
  for (std::size_t i = 0; i < num_words(); ++i) words[i] = 0;
}

ProcessId ProcessSet::min() const {
  const std::uint64_t* words = data();
  for (std::size_t w = 0; w < num_words(); ++w) {
    if (words[w] != 0) {
      return static_cast<ProcessId>(w * 64 +
                                    static_cast<std::size_t>(
                                        std::countr_zero(words[w])));
    }
  }
  return -1;
}

ProcessId ProcessSet::max() const {
  const std::uint64_t* words = data();
  for (std::size_t w = num_words(); w-- > 0;) {
    if (words[w] != 0) {
      return static_cast<ProcessId>(w * 64 + 63 -
                                    static_cast<std::size_t>(
                                        std::countl_zero(words[w])));
    }
  }
  return -1;
}

std::vector<ProcessId> ProcessSet::members() const {
  std::vector<ProcessId> out;
  out.reserve(static_cast<std::size_t>(count()));
  for_each([&out](ProcessId p) { out.push_back(p); });
  return out;
}

void ProcessSet::check_universe(const ProcessSet& other) const {
  RFD_REQUIRE_MSG(universe_size_ == other.universe_size_,
                  "set algebra across different universes");
}

ProcessSet& ProcessSet::operator|=(const ProcessSet& other) {
  check_universe(other);
  std::uint64_t* words = data();
  const std::uint64_t* theirs = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) words[i] |= theirs[i];
  return *this;
}

ProcessSet& ProcessSet::operator&=(const ProcessSet& other) {
  check_universe(other);
  std::uint64_t* words = data();
  const std::uint64_t* theirs = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) words[i] &= theirs[i];
  return *this;
}

ProcessSet& ProcessSet::operator-=(const ProcessSet& other) {
  check_universe(other);
  std::uint64_t* words = data();
  const std::uint64_t* theirs = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) words[i] &= ~theirs[i];
  return *this;
}

bool ProcessSet::is_subset_of(const ProcessSet& other) const {
  check_universe(other);
  const std::uint64_t* words = data();
  const std::uint64_t* theirs = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) {
    if ((words[i] & ~theirs[i]) != 0) return false;
  }
  return true;
}

bool ProcessSet::intersects(const ProcessSet& other) const {
  check_universe(other);
  const std::uint64_t* words = data();
  const std::uint64_t* theirs = other.data();
  for (std::size_t i = 0; i < num_words(); ++i) {
    if ((words[i] & theirs[i]) != 0) return true;
  }
  return false;
}

bool ProcessSet::operator==(const ProcessSet& other) const {
  if (universe_size_ != other.universe_size_) return false;
  return std::equal(data(), data() + num_words(), other.data());
}

std::uint64_t ProcessSet::hash() const {
  const std::uint64_t* words = data();
  std::uint64_t h = static_cast<std::uint64_t>(universe_size_);
  for (std::size_t i = 0; i < num_words(); ++i) {
    h = mix_seed(h, words[i]);
  }
  return h;
}

std::string ProcessSet::to_string() const {
  std::string out = "{";
  bool first = true;
  for_each([&](ProcessId p) {
    if (!first) out += ",";
    first = false;
    out += "p" + std::to_string(p);
  });
  out += "}";
  return out;
}

}  // namespace rfd
