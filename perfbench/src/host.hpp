// Host-side measurement for perfbench: CPU clocks, the reference loop that
// host cost is normalised by, resident memory, steal ticks, and the span
// tracer that splits a traced pass across the program's layers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] std::int64_t thread_cpu_ns();
[[nodiscard]] std::int64_t process_cpu_ns();
[[nodiscard]] std::int64_t wall_ns();

/// Host cost is reported as if the pass's reference had taken exactly this
/// long (run.py's REF_NOMINAL_NS): value = raw * kRefNominalNs / reference.
inline constexpr double kRefNominalNs = 30e6;

/// Fixed, benchmark-owned work timed around every pass: a miniature
/// discrete-event loop — a binary heap of timestamped events whose
/// handlers, called through std::function, update a 4 MiB table at
/// scattered slots and schedule their successors. That is the instruction
/// mix of the simulator (heap sifts, indirect calls, branches, cache
/// misses) without any of its code, so a change to the program never moves
/// the reference. Its thread CPU time tracks how fast the host runs right
/// now; dividing a pass by the reference around it cancels most of the
/// host's drift between runs.
class ReferenceLoop {
 public:
  ReferenceLoop();
  /// Runs the loop once; returns its thread CPU time in ns.
  [[nodiscard]] std::int64_t run_ns();

 private:
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, id)
  std::vector<std::function<std::uint64_t(std::uint64_t, std::uint32_t)>>
      handlers_;
  std::vector<std::uint64_t> table_;
  std::vector<Event> heap_;
  std::uint64_t sink_ = 0;
};

/// Peak resident set of this process, kB (getrusage).
[[nodiscard]] long peak_rss_kb();

/// Resident memory a stretch of code adds at its peak: the high-water mark
/// (VmHWM) at added_kb() minus the resident set (VmRSS) at construction.
/// Construction resets the high-water mark to the current resident set
/// through /proc/self/clear_refs; `reset()` says whether that worked.
class PeakRssProbe {
 public:
  PeakRssProbe();
  [[nodiscard]] long added_kb() const;
  [[nodiscard]] bool reset() const { return reset_; }

 private:
  long base_kb_ = 0;
  bool reset_ = false;
};

/// Aggregate CPU tick counters from /proc/stat: steal and all states.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

/// 1-minute load average, or -1 when unavailable.
[[nodiscard]] double load_average();

/// Effective parallelism: how many spinning threads the host actually runs
/// at once (threads × single-thread time ÷ parallel wall time), probed with
/// `threads` threads of fixed work.
[[nodiscard]] double spin_probe(int threads);

// ---------------------------------------------------------------------
// Tracing

/// The program's layers, as the spans name them.
enum class Layer : std::uint8_t {
  kSim,       // Simulator::run, less the spans below
  kNet,       // sends an algorithm issues (Network::send, ARQ, latency draw)
  kMutex,     // algorithm entry points: request/release/on_message
  kCore,      // composition coordinator callbacks
  kService,   // ClientSession acquire/release calls
  kWorkload,  // benchmark-driven app and open-loop callbacks
  kCount
};
inline constexpr int kLayerCount = int(Layer::kCount);
[[nodiscard]] const char* layer_name(Layer l);

/// Spans kept in memory: per-layer totals and self time (span minus the
/// part its child spans cover) for the metrics, plus the first
/// `kKeptSpans` raw spans of the run, written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::int64_t start_ns;
    std::int64_t dur_ns;
    Layer layer;
    Layer parent;  // kCount = root
  };
  static constexpr std::size_t kKeptSpans = 1 << 18;

  Tracer();

  void open(Layer l);
  void close();

  /// Per-layer accumulators since the last reset().
  [[nodiscard]] std::int64_t self_ns(Layer l) const {
    return self_[std::size_t(l)];
  }
  [[nodiscard]] std::uint64_t count(Layer l) const {
    return count_[std::size_t(l)];
  }
  void reset();

  /// Writes the kept spans as TSV (start_ns, dur_ns, layer, parent).
  void write(const std::string& path) const;

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, Layer l) : t_(t) {
      if (t_ != nullptr) t_->open(l);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t child;
  };
  std::vector<Frame> stack_;
  std::int64_t self_[kLayerCount] = {};
  std::uint64_t count_[kLayerCount] = {};
  std::vector<Span> kept_;
};

}  // namespace perfbench
