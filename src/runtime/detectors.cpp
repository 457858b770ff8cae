#include "runtime/detectors.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace rfd::rt {
namespace {

/// Solves erfc(x) = y for x by bisection (erfc is strictly decreasing).
/// Returns the lower bracket end, so the caller's derived deadline errs
/// early - a deadline that fires a hair before the true crossing costs
/// one spurious suspects() query; one that fires after misses it.
double inverse_erfc(double y) {
  double lo = -6.0;   // erfc(-6) ~ 2
  double hi = 28.0;   // erfc(28) underflows to 0
  for (int i = 0; i < 120; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (std::erfc(mid) >= y) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

ChenAdaptiveDetector::ChenAdaptiveDetector(ChenAdaptiveParams params)
    : params_(params) {
  RFD_REQUIRE(params.window >= 2);
  RFD_REQUIRE(params.alpha_ms > 0.0);
}

void ChenAdaptiveDetector::on_heartbeat(double now) {
  arrivals_.push_back(now);
  while (static_cast<int>(arrivals_.size()) > params_.window) {
    arrivals_.pop_front();
  }
  if (arrivals_.size() >= 2) {
    // Chen-Toueg NFD-E: EA = mean inter-arrival extrapolated from the
    // window's first arrival, advanced one period past the latest.
    const double span = arrivals_.back() - arrivals_.front();
    const double period =
        span / static_cast<double>(arrivals_.size() - 1);
    expected_arrival_ = arrivals_.back() + period;
  } else {
    expected_arrival_ = -1.0;
  }
}

bool ChenAdaptiveDetector::suspects(double now) const {
  if (arrivals_.empty()) {
    return now > params_.fallback_timeout_ms;
  }
  if (expected_arrival_ < 0.0) {
    return now - arrivals_.back() > params_.fallback_timeout_ms;
  }
  return now > expected_arrival_ + params_.alpha_ms;
}

double ChenAdaptiveDetector::suspect_deadline() const {
  if (arrivals_.empty()) return params_.fallback_timeout_ms;
  if (expected_arrival_ < 0.0) {
    return arrivals_.back() + params_.fallback_timeout_ms;
  }
  return expected_arrival_ + params_.alpha_ms;
}

void ChenAdaptiveDetector::save_state(std::vector<double>& out) const {
  out.push_back(expected_arrival_);
  out.push_back(static_cast<double>(arrivals_.size()));
  out.insert(out.end(), arrivals_.begin(), arrivals_.end());
}

bool ChenAdaptiveDetector::restore_state(const double*& cursor,
                                         const double* end) {
  if (end - cursor < 2) return false;
  const double expected = cursor[0];
  const double count_d = cursor[1];
  cursor += 2;
  if (!(count_d >= 0.0) || count_d > static_cast<double>(params_.window)) {
    return false;
  }
  const std::size_t count = static_cast<std::size_t>(count_d);
  if (static_cast<std::size_t>(end - cursor) < count) return false;
  expected_arrival_ = expected;
  arrivals_.assign(cursor, cursor + count);
  cursor += count;
  return true;
}

double phi_z_threshold(const PhiAccrualParams& params) {
  // suspects() fires when phi > threshold, i.e. when the normal tail
  // 0.5*erfc(z/sqrt(2)) drops below 10^-threshold.
  const double tail = std::pow(10.0, -params.threshold);
  return std::sqrt(2.0) * inverse_erfc(2.0 * tail);
}

PhiAccrualDetector::PhiAccrualDetector(PhiAccrualParams params,
                                       double z_threshold)
    : params_(params), z_threshold_(z_threshold) {
  RFD_REQUIRE(params.window >= 2);
  RFD_REQUIRE(params.threshold > 0.0);
}

void PhiAccrualDetector::on_heartbeat(double now) {
  if (last_heartbeat_ >= 0.0) {
    intervals_.push_back(now - last_heartbeat_);
    while (static_cast<int>(intervals_.size()) > params_.window) {
      intervals_.pop_front();
    }
    double sum = 0.0;
    for (double x : intervals_) sum += x;
    mean_ = sum / static_cast<double>(intervals_.size());
    double sq = 0.0;
    for (double x : intervals_) sq += (x - mean_) * (x - mean_);
    var_ = intervals_.size() > 1
               ? sq / static_cast<double>(intervals_.size() - 1)
               : 0.0;
  }
  last_heartbeat_ = now;
}

double PhiAccrualDetector::phi(double now) const {
  if (last_heartbeat_ < 0.0 || intervals_.empty()) {
    return 0.0;
  }
  const double elapsed = now - last_heartbeat_;
  const double stddev =
      std::max(std::sqrt(var_), params_.min_stddev_ms);
  // P(inter-arrival > elapsed) under a normal fit; phi = -log10 of it.
  const double z = (elapsed - mean_) / stddev;
  // Complementary CDF via erfc; clamp to avoid -log10(0).
  double tail = 0.5 * std::erfc(z / std::sqrt(2.0));
  tail = std::max(tail, 1e-300);
  return -std::log10(tail);
}

bool PhiAccrualDetector::suspects(double now) const {
  if (last_heartbeat_ < 0.0) {
    // Grace period measured from time 0 until the first heartbeat.
    return now > params_.fallback_timeout_ms;
  }
  if (intervals_.empty()) {
    // One heartbeat seen, no interval yet: fall back to a fixed window
    // from that arrival (mirrors ChenAdaptiveDetector's warm-up).
    return now - last_heartbeat_ > params_.fallback_timeout_ms;
  }
  return phi(now) > params_.threshold;
}

double PhiAccrualDetector::suspect_deadline() const {
  if (last_heartbeat_ < 0.0) return params_.fallback_timeout_ms;
  if (intervals_.empty()) {
    return last_heartbeat_ + params_.fallback_timeout_ms;
  }
  const double stddev = std::max(std::sqrt(var_), params_.min_stddev_ms);
  return last_heartbeat_ + mean_ + stddev * z_threshold_;
}

void PhiAccrualDetector::save_state(std::vector<double>& out) const {
  // z_threshold_ is derived from the params at construction; only the
  // observed-timing state travels.
  out.push_back(last_heartbeat_);
  out.push_back(mean_);
  out.push_back(var_);
  out.push_back(static_cast<double>(intervals_.size()));
  out.insert(out.end(), intervals_.begin(), intervals_.end());
}

bool PhiAccrualDetector::restore_state(const double*& cursor,
                                       const double* end) {
  if (end - cursor < 4) return false;
  const double last = cursor[0];
  const double mean = cursor[1];
  const double var = cursor[2];
  const double count_d = cursor[3];
  cursor += 4;
  if (!(count_d >= 0.0) || count_d > static_cast<double>(params_.window)) {
    return false;
  }
  const std::size_t count = static_cast<std::size_t>(count_d);
  if (static_cast<std::size_t>(end - cursor) < count) return false;
  last_heartbeat_ = last;
  mean_ = mean;
  var_ = var;
  intervals_.assign(cursor, cursor + count);
  cursor += count;
  return true;
}

std::unique_ptr<PeerDetector> make_detector(const DetectorParams& params,
                                            double phi_z_threshold) {
  switch (params.kind) {
    case DetectorKind::kChen:
      return std::make_unique<ChenAdaptiveDetector>(params.chen);
    case DetectorKind::kPhi:
      return std::make_unique<PhiAccrualDetector>(params.phi,
                                                  phi_z_threshold);
    case DetectorKind::kFixed:
      break;
  }
  RFD_UNREACHABLE("the fixed timeout is inlined in cluster::ClusterNode");
}

std::string detector_kind_name(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kFixed:
      return "fixed";
    case DetectorKind::kChen:
      return "chen";
    case DetectorKind::kPhi:
      return "phi";
  }
  return "?";
}

}  // namespace rfd::rt
