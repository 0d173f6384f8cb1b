// The workloads perfbench measures and what one measurement of each
// reports. main.cpp owns the timing loop and the output; each workload
// builds its world, runs it, and checks its outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "host.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scaled-down worlds that finish in about a second: exercises every
  /// check and every output field without measuring anything useful.
  bool smoke = false;
  /// Service workloads only, for checking their load (README.md): the
  /// arrival rate and window in place of the workload's own; 0 keeps it.
  double rate = 0.0;
  double window_s = 0.0;
};

/// One timed pass: a freshly built world, run to completion.
struct PassSample {
  std::int64_t setup_ns = 0;  // host CPU building the world
  std::int64_t cpu_ns = 0;    // host CPU running it, set-up excluded
  std::int64_t wall_ns = 0;   // wall time of the run phase
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  bool traced = false;
  /// Construction time of single layers (0 where not reachable).
  std::int64_t net_setup_ns = 0;
  std::int64_t mutex_setup_ns = 0;
  std::int64_t service_setup_ns = 0;
  /// Traced passes: self time per layer, and how many sends the
  /// algorithms issued (net spans).
  std::int64_t self_ns[kLayerCount] = {};
  std::uint64_t spans_net = 0;
  /// A reference the workload measured during the pass itself, in ns for
  /// a fixed amount of work; 0 when it has none.
  std::int64_t ref_during_ns = 0;
  /// Filled by the timing loop.
  std::int64_t ref_before_ns = 0;
  std::int64_t ref_after_ns = 0;
};

/// The reference a pass is divided by: its own ref_during_ns when set,
/// otherwise the mean of the reference loop just before and just after.
[[nodiscard]] inline double pass_reference_ns(const PassSample& p) {
  return p.ref_during_ns > 0 ? double(p.ref_during_ns)
                             : 0.5 * double(p.ref_before_ns + p.ref_after_ns);
}

/// Everything a workload reports besides its passes.
struct Summary {
  // End-to-end statistics of the workload's own outputs.
  double obtain_ms = 0;
  double obtain_sd_ms = 0;
  double obtain_p50_ms = 0;
  double obtain_p99_ms = 0;
  std::uint64_t obtain_samples = 0;
  double inter_msgs_per_cs = 0;
  double inter_bytes_per_cs = 0;
  /// Per-layer counts, by metric name.
  std::vector<std::pair<std::string, double>> counts;
  /// Per-layer metrics this workload cannot reach from outside the
  /// program; printed as 0 and listed so a reader never mistakes them for
  /// measurements.
  std::vector<std::string> unreached;
  /// One line describing the world, printed with the traced split.
  std::string note;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed: computes the reference results the passes are checked
  /// against, and anything measured once (raw latency samples).
  virtual void warm_up() = 0;
  /// One pass; `tracer` non-null on traced passes.
  virtual PassSample pass(Tracer* tracer) = 0;
  /// `passes` are this run's passes, with their reference times.
  virtual Summary summary(const std::vector<PassSample>& passes) const = 0;
  /// Check failures so far; any entry fails the run.
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  /// Resident memory the program's first world added at its peak, kB,
  /// measured by warm_up() before the benchmark's own buffers exist; and
  /// whether the high-water mark could be reset for it.
  [[nodiscard]] long world_peak_kb() const { return world_peak_kb_; }
  [[nodiscard]] bool world_peak_reset() const { return world_peak_reset_; }

 protected:
  void set_world_peak(const PeakRssProbe& probe) {
    world_peak_kb_ = probe.added_kb();
    world_peak_reset_ = probe.reset();
  }
  void fail(std::string what) { failures_.push_back(std::move(what)); }
  /// Records `what` when `ok` is false; returns `ok`.
  bool check(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }

 private:
  std::vector<std::string> failures_;
  long world_peak_kb_ = 0;
  bool world_peak_reset_ = false;
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_grid(const Options& o);
[[nodiscard]] std::unique_ptr<Workload> make_service(const Options& o,
                                                     bool lossy);
[[nodiscard]] std::unique_ptr<Workload> make_lockd_loopback(
    const Options& o);

/// Nearest-rank percentile of `v` (sorted in place), q in [0, 1].
[[nodiscard]] double percentile(std::vector<double>& v, double q);
/// Mean and population standard deviation.
[[nodiscard]] std::pair<double, double> mean_sd(const std::vector<double>& v);

}  // namespace perfbench
