#include "transport/flaky.hpp"

#include <cmath>

#include "common/bytes.hpp"

namespace rfd::transport {

namespace {
constexpr std::uint32_t kFlakyStateMagic = 0x464c4b59u;  // "FLKY"
}  // namespace

FlakyTransport::FlakyTransport(std::unique_ptr<Transport> inner,
                               int max_nodes, std::uint64_t seed,
                               FlakyParams params)
    : inner_(std::move(inner)),
      max_nodes_(max_nodes),
      net_(std::make_unique<rt::Network>(seed, params.network)),
      dup_rng_(mix_seed(seed, 0xd0bb1edull)),
      params_(params) {
  RFD_REQUIRE(max_nodes > 0);
  RFD_REQUIRE(params.dup_prob >= 0.0 && params.dup_prob <= 1.0);
}

void FlakyTransport::advance_clock(double now_ms) {
  if (now_ms > now_ms_) now_ms_ = now_ms;
}

void FlakyTransport::send(NodeId from, NodeId to, const Payload& payload,
                          double now_ms) {
  advance_clock(now_ms);
  ++offered_;
  bytes_.clear();
  payload.write(bytes_);
  const std::optional<double> delay = net_->route(from, to, now_ms_);
  if (!delay.has_value()) return;
  Held h{now_ms + *delay, seq_++, from, to, bytes_};
  if (params_.dup_prob > 0.0 && dup_rng_.chance(params_.dup_prob)) {
    // The duplicate runs the full gauntlet again: its own loss verdict,
    // its own delay - so a dup can die, or overtake the original
    // (reordering).
    if (const std::optional<double> dup = net_->route(from, to, now_ms_)) {
      held_.insert({now_ms + *dup, seq_++, from, to, bytes_});
      ++duplicated_;
    }
  }
  held_.insert(std::move(h));
}

void FlakyTransport::poll(double now_ms, std::vector<Delivery>& out) {
  advance_clock(now_ms);
  while (!held_.empty() && held_.begin()->release_at_ms <= now_ms) {
    auto node = held_.extract(held_.begin());
    Held& h = node.value();
    if (inner_ != nullptr) {
      inner_->send(h.from, h.to, h.payload.data(), h.payload.size(),
                   h.release_at_ms);
      continue;
    }
    Delivery& d = out.emplace_back();
    d.at_ms = h.release_at_ms;
    d.from = h.from;
    d.to = h.to;
    d.payload = std::move(h.payload);
    ++delivered_;
  }
  if (inner_ != nullptr) inner_->poll(now_ms, out);
}

TransportCounters FlakyTransport::counters() const {
  TransportCounters c =
      inner_ != nullptr ? inner_->counters() : TransportCounters{};
  // sent = what the application offered at this boundary (the verdict
  // network's own sent() also counts duplicate copies' verdicts, so it
  // is not usable here); dropped adds what the injector ate, including
  // dup copies that died. delivered + dropped therefore exceeds sent by
  // the number of duplicate verdicts drawn.
  c.sent = offered_;
  c.delivered += delivered_;
  c.dropped += net_->dropped();
  c.duplicated += duplicated_;
  return c;
}

bool FlakyTransport::save_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.u32(kFlakyStateMagic);
  w.i32(max_nodes_);
  w.f64(now_ms_);
  w.u64(seq_);
  w.i64(duplicated_);
  w.i64(offered_);
  w.i64(delivered_);
  for (std::uint64_t word : dup_rng_.save_state()) w.u64(word);
  std::int64_t sent = 0, dropped = 0, part = 0, link = 0;
  net_->save_accounting(sent, dropped, part, link);
  w.i64(sent);
  w.i64(dropped);
  w.i64(part);
  w.i64(link);
  std::vector<std::array<std::uint64_t, 5>> streams;
  net_->save_rng_state(streams);
  w.u32(static_cast<std::uint32_t>(streams.size()));
  for (const auto& s : streams) {
    for (std::uint64_t word : s) w.u64(word);
  }
  w.u32(static_cast<std::uint32_t>(held_.size()));
  for (const Held& h : held_) {
    w.f64(h.release_at_ms);
    w.u64(h.seq);
    w.i32(h.from);
    w.i32(h.to);
    w.u32(static_cast<std::uint32_t>(h.payload.size()));
    w.bytes(h.payload.data(), h.payload.size());
  }
  // The inner transport's state, length-prefixed; no inner transport
  // contributes an empty slice.
  std::vector<std::uint8_t> inner_state;
  const bool inner_saved =
      inner_ != nullptr && inner_->save_state(inner_state);
  w.u8(inner_saved ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(inner_state.size()));
  w.bytes(inner_state.data(), inner_state.size());
  return true;
}

bool FlakyTransport::restore_state(const std::uint8_t* data,
                                   std::size_t size) {
  ByteReader r(data, size);
  if (r.u32() != kFlakyStateMagic) return false;
  if (r.i32() != max_nodes_) return false;
  const double clock_now = r.f64();
  const std::uint64_t seq = r.u64();
  const std::int64_t duplicated = r.i64();
  const std::int64_t offered = r.i64();
  const std::int64_t delivered = r.i64();
  std::array<std::uint64_t, 5> dup_state{};
  for (std::uint64_t& word : dup_state) word = r.u64();
  const std::int64_t sent = r.i64();
  const std::int64_t dropped = r.i64();
  const std::int64_t part = r.i64();
  const std::int64_t link = r.i64();
  const std::uint32_t stream_count = r.u32();
  if (!r.ok() || stream_count == 0 ||
      stream_count > static_cast<std::uint32_t>(max_nodes_) + 1) {
    return false;
  }
  std::vector<std::array<std::uint64_t, 5>> streams(stream_count);
  for (auto& s : streams) {
    for (std::uint64_t& word : s) word = r.u64();
  }
  const std::uint32_t held_count = r.u32();
  if (!r.ok()) return false;
  std::set<Held> held;
  for (std::uint32_t i = 0; i < held_count; ++i) {
    Held h;
    h.release_at_ms = r.f64();
    h.seq = r.u64();
    h.from = r.i32();
    h.to = r.i32();
    const std::uint32_t payload_size = r.u32();
    // The ids reach the inner send: a verdict network there grows one
    // RNG stream per sender id, so an id off the id space is refused.
    if (!r.ok() || !std::isfinite(h.release_at_ms) || h.from < 0 ||
        h.from >= max_nodes_ || h.to < 0 || h.to >= max_nodes_ ||
        payload_size > (1u << 24)) {
      return false;
    }
    h.payload.resize(payload_size);
    if (payload_size != 0 && !r.bytes(h.payload.data(), payload_size)) {
      return false;
    }
    held.insert(std::move(h));
  }
  const bool inner_saved = r.u8() != 0;
  const std::uint32_t inner_size = r.u32();
  if (!r.ok() || inner_size > (1u << 28)) return false;
  std::vector<std::uint8_t> inner_state(inner_size);
  if (inner_size != 0 && !r.bytes(inner_state.data(), inner_size)) {
    return false;
  }
  if (!r.ok()) return false;
  if (inner_saved &&
      (inner_ == nullptr ||
       !inner_->restore_state(inner_state.data(), inner_state.size()))) {
    return false;
  }
  advance_clock(clock_now);
  seq_ = seq;
  duplicated_ = duplicated;
  offered_ = offered;
  delivered_ = delivered;
  dup_rng_.restore_state(dup_state);
  net_->restore_accounting(sent, dropped, part, link);
  net_->restore_rng_state(streams);
  held_ = std::move(held);
  return true;
}

}  // namespace rfd::transport
