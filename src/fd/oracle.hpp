// Failure detector oracles.
//
// A failure detector D maps each failure pattern F to a set of histories
// D(F) (Section 2.2). An Oracle is one sampled history: constructed from a
// pattern and a seed, it answers H(p, t) queries. Oracles are pure
// functions of (observer, tick, seed, pattern) so the same object can be
// queried in any order and always describes one well-defined history.
//
// Realism (Section 3.1) is enforced structurally: subclasses of
// RealisticOracle only ever see the pattern through a PastView clipped at
// the query tick, so they *cannot* read the future. Subclasses of
// ClairvoyantOracle receive the FullView and are thereby declared
// non-realistic (the Marabout of Section 3.2.2 lives there).
//
// What an oracle may compute once, at construction, is what does not
// depend on the pattern: its DetectionDelays table is a function of the
// seed and the (observer, target) pair alone, so precomputing it gives a
// realistic oracle no view of any crash, past or future. A clairvoyant
// oracle may also precompute facts about the whole pattern (the
// Marabout's faulty set, S(cheat)'s immune process).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "fd/fd_value.hpp"
#include "model/failure_pattern.hpp"

namespace rfd::fd {

class Oracle {
 public:
  virtual ~Oracle() = default;

  /// H(observer, t): the detector module output of `observer` at tick t.
  virtual FdValue query(ProcessId observer, Tick t) const = 0;

  /// Whether the construction guarantees the realism property of §3.1.
  virtual bool realistic_by_construction() const = 0;

  /// Human-readable detector name (e.g. "P", "S*", "<>S", "Marabout").
  virtual std::string name() const = 0;

  ProcessId n() const { return pattern_->n(); }
  const model::FailurePattern& pattern() const { return *pattern_; }
  std::uint64_t seed() const { return seed_; }

 protected:
  Oracle(const model::FailurePattern& pattern, std::uint64_t seed)
      : pattern_(&pattern), seed_(seed) {}

  /// Stateless pseudo-random suspicion noise: a pure hash of the oracle
  /// seed and the query coordinates, so histories are well-defined.
  std::uint64_t noise(std::uint64_t a, std::uint64_t b, std::uint64_t c) const {
    return mix_seed(mix_seed(seed_, a), mix_seed(b, c));
  }

 private:
  friend class DetectionDelays;

  const model::FailurePattern* pattern_;
  std::uint64_t seed_;
};

/// The per-(observer, target) detection delays of a suspect-list oracle:
/// d(o, q) = min_delay + noise(o, q, salt) mod (max_delay - min_delay + 1),
/// drawn once at construction into an n x n table so that a query reads
/// its observer's row instead of hashing every pair again. The draw reads
/// the oracle's seed and the pair only, never the pattern (see the file
/// header). Oracles are built for the paper's small n (at most 70
/// anywhere in the repo), so the table stays under 40 KB.
class DetectionDelays {
 public:
  DetectionDelays(const Oracle& oracle, std::uint64_t salt, Tick min_delay,
                  Tick max_delay);

  /// d(observer, q) for every q, indexed by q.
  std::span<const Tick> row(ProcessId observer) const {
    RFD_REQUIRE(observer >= 0 && observer < n_);
    const auto n = static_cast<std::size_t>(n_);
    return {table_.data() + static_cast<std::size_t>(observer) * n, n};
  }

  Tick operator()(ProcessId observer, ProcessId target) const {
    RFD_REQUIRE(target >= 0 && target < n_);
    return row(observer)[static_cast<std::size_t>(target)];
  }

 private:
  ProcessId n_;
  std::vector<Tick> table_;  // [observer * n + target]
};

/// Base for oracles that cannot guess the future: the pattern is only ever
/// exposed through PastView(pattern, t) during a query at tick t.
class RealisticOracle : public Oracle {
 public:
  FdValue query(ProcessId observer, Tick t) const final {
    return query_past(observer, t, model::PastView(pattern(), t));
  }
  bool realistic_by_construction() const final { return true; }

 protected:
  using Oracle::Oracle;
  virtual FdValue query_past(ProcessId observer, Tick t,
                             const model::PastView& past) const = 0;
};

/// Base for oracles that may consult the future (non-realistic).
class ClairvoyantOracle : public Oracle {
 public:
  FdValue query(ProcessId observer, Tick t) const final {
    return query_full(observer, t, model::FullView(pattern()));
  }
  bool realistic_by_construction() const final { return false; }

 protected:
  using Oracle::Oracle;
  virtual FdValue query_full(ProcessId observer, Tick t,
                             const model::FullView& full) const = 0;
};

/// Builds one sampled history of a detector for a given pattern and seed.
using OracleFactory = std::function<std::unique_ptr<Oracle>(
    const model::FailurePattern& pattern, std::uint64_t seed)>;

}  // namespace rfd::fd
