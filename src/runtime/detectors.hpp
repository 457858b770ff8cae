// Timeout-based failure detector implementations over heartbeats.
//
// These are the "realistic failure detectors" as deployed systems build
// them - <>P-grade at best: they can always be wrong before the network
// stabilizes. Three classics are provided:
//
//   fixed timeout         - suspect after a constant silence window
//                           (FixedTimeoutParams); it needs no object:
//                           cluster::ClusterNode keeps each peer's last
//                           heartbeat time and compares inline;
//   ChenAdaptiveDetector  - Chen-Toueg NFD-E style: estimate the next
//                           heartbeat arrival from a sliding window of
//                           past arrivals and add a safety margin alpha;
//   PhiAccrualDetector    - Hayashibara-style accrual detector: suspicion
//                           level phi = -log10 P(heartbeat still pending),
//                           with inter-arrival times fitted by a normal
//                           distribution; suspect when phi exceeds a
//                           threshold.
//
// Each adaptive instance monitors ONE peer; a cluster node holds one per
// peer it has heard (see cluster/node.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace rfd::rt {

class PeerDetector {
 public:
  virtual ~PeerDetector() = default;

  /// Records a heartbeat from the monitored peer at time `now` (ms).
  virtual void on_heartbeat(double now) = 0;

  /// Whether the peer is suspected at time `now`.
  virtual bool suspects(double now) const = 0;

  /// The expiry deadline D (absolute ms): absent further heartbeats,
  /// suspects(t) holds exactly for t > D. Suspicion is monotone between
  /// heartbeats, so a scheduler can register one cancelable deadline per
  /// peer instead of polling suspects() on a grid; a heartbeat may move D
  /// in either direction (an adaptive window can tighten), so re-query
  /// after every on_heartbeat.
  virtual double suspect_deadline() const = 0;

  /// Checkpoint hooks: append the detector's *mutable* timing state to
  /// `out` (parameters come back from config at reconstruction, derived
  /// constants are recomputed by the constructor). Variable-length
  /// windows encode a leading element count, so states concatenate into
  /// one flat stream. restore_state() consumes from `cursor`, advancing
  /// it past this detector's slice; it returns false (leaving the
  /// detector unchanged or partially restored - callers discard it on
  /// failure) when the stream is truncated or violates the window bound.
  virtual void save_state(std::vector<double>& out) const = 0;
  virtual bool restore_state(const double*& cursor, const double* end) = 0;
};

struct FixedTimeoutParams {
  double timeout_ms = 500.0;
};

struct ChenAdaptiveParams {
  int window = 16;           // arrivals remembered
  double alpha_ms = 100.0;   // safety margin added to the estimated arrival
  double fallback_timeout_ms = 1000.0;  // before the first heartbeat
};

class ChenAdaptiveDetector final : public PeerDetector {
 public:
  explicit ChenAdaptiveDetector(ChenAdaptiveParams params);

  void on_heartbeat(double now) override;
  bool suspects(double now) const override;
  double suspect_deadline() const override;
  void save_state(std::vector<double>& out) const override;
  bool restore_state(const double*& cursor, const double* end) override;

  /// Expected arrival time of the next heartbeat (for diagnostics).
  double expected_arrival() const { return expected_arrival_; }

 private:
  ChenAdaptiveParams params_;
  std::deque<double> arrivals_;
  double expected_arrival_ = -1.0;
};

struct PhiAccrualParams {
  int window = 32;
  double threshold = 8.0;          // suspect when phi exceeds this
  double min_stddev_ms = 10.0;     // variance floor for early samples
  double fallback_timeout_ms = 1000.0;
};

/// The z-score at which phi crosses params.threshold under the normal
/// fit. It depends on the threshold alone, so a caller building many
/// detectors solves it once and passes it to each.
double phi_z_threshold(const PhiAccrualParams& params);

class PhiAccrualDetector final : public PeerDetector {
 public:
  explicit PhiAccrualDetector(PhiAccrualParams params)
      : PhiAccrualDetector(params, phi_z_threshold(params)) {}
  /// `z_threshold` must be phi_z_threshold(params).
  PhiAccrualDetector(PhiAccrualParams params, double z_threshold);

  void on_heartbeat(double now) override;
  bool suspects(double now) const override;
  double suspect_deadline() const override;
  void save_state(std::vector<double>& out) const override;
  bool restore_state(const double*& cursor, const double* end) override;

  /// Current suspicion level phi at time `now`.
  double phi(double now) const;

 private:
  PhiAccrualParams params_;
  std::deque<double> intervals_;
  double last_heartbeat_ = -1.0;
  double mean_ = 0.0;
  double var_ = 0.0;
  /// phi_z_threshold(params_): the deadline is then
  /// last_heartbeat + mean + stddev * z in O(1) per query.
  double z_threshold_ = 0.0;
};

enum class DetectorKind { kFixed, kChen, kPhi };

struct DetectorParams {
  DetectorKind kind = DetectorKind::kChen;
  FixedTimeoutParams fixed;
  ChenAdaptiveParams chen;
  PhiAccrualParams phi;
};

/// An adaptive (kChen or kPhi) detector; the fixed timeout has none.
/// `phi_z_threshold` is phi_z_threshold(params.phi) for kPhi and unread
/// otherwise.
std::unique_ptr<PeerDetector> make_detector(const DetectorParams& params,
                                            double phi_z_threshold);
std::string detector_kind_name(DetectorKind kind);

}  // namespace rfd::rt
