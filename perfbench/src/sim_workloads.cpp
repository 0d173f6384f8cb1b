// The three simulated workloads: paper_grid (the paper's testbed, closed
// loop, twelve algorithm cells) and service_k64 / service_lossy (a K = 64
// LockService under open-loop traffic, clean and with 2 % inter-cluster
// loss). Every world is built here from the public constructors, in the
// order run_experiment / run_service_experiment build theirs, and each
// world's delivery-trace hash must equal theirs: the benchmark measures
// exactly the program those entry points run.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "gridmutex/core/composition.hpp"
#include "gridmutex/core/coordinator.hpp"
#include "gridmutex/fault/failover.hpp"
#include "gridmutex/fault/injector.hpp"
#include "gridmutex/fault/recovery.hpp"
#include "gridmutex/mutex/endpoint.hpp"
#include "gridmutex/mutex/registry.hpp"
#include "gridmutex/service/experiment.hpp"
#include "gridmutex/service/lock_service.hpp"
#include "gridmutex/workload/app_process.hpp"
#include "gridmutex/workload/experiment.hpp"
#include "gridmutex/workload/open_loop.hpp"
#include "gridmutex/workload/safety_monitor.hpp"
#include "gridmutex/workload/trace_hash.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gmx;

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

std::pair<double, double> mean_sd(const std::vector<double>& v) {
  if (v.empty()) return {0.0, 0.0};
  double sum = 0.0;
  for (const double x : v) sum += x;
  const double mean = sum / double(v.size());
  double sq = 0.0;
  for (const double x : v) sq += (x - mean) * (x - mean);
  return {mean, std::sqrt(sq / double(v.size()))};
}

namespace {

/// Everything a simulated pass must reproduce exactly, pass after pass.
struct Fingerprint {
  std::uint64_t trace_hash = 0;
  std::uint64_t completed = 0;
  std::uint64_t events = 0;
  MessageCounters messages;
  DurationStats obtaining;

  bool operator==(const Fingerprint&) const = default;
};

// ---------------------------------------------------------------------
// Span wrappers for the traced paper_grid world.

/// Forwarding algorithm handed to MutexEndpoint in place of the real one:
/// spans the algorithm's entry points (mutex) and the sends it issues
/// (net), and — on application endpoints — records every request→grant
/// time as a raw sample. It mirrors the wrapped algorithm's Fig. 1(a)
/// state so the endpoint's state queries read through unchanged.
class ProbeAlgorithm final : public MutexAlgorithm,
                             private MutexContext,
                             private MutexObserver {
 public:
  ProbeAlgorithm(std::unique_ptr<MutexAlgorithm> inner, Tracer* tracer,
                 std::vector<double>* samples)
      : inner_(std::move(inner)), tracer_(tracer), samples_(samples) {}

  void init(int holder_rank) override {
    inner_->attach(*this, *this);
    inner_->set_state_hook([this](CsState, CsState to) { set_state(to); });
    Tracer::Scope s(tracer_, Layer::kMutex);
    inner_->init(holder_rank);
  }
  void request_cs() override {
    requested_at_ = ctx().now();
    Tracer::Scope s(tracer_, Layer::kMutex);
    inner_->request_cs();
  }
  void release_cs() override {
    Tracer::Scope s(tracer_, Layer::kMutex);
    inner_->release_cs();
  }
  void on_message(int from_rank, std::uint16_t type,
                  wire::Reader payload) override {
    Tracer::Scope s(tracer_, Layer::kMutex);
    inner_->on_message(from_rank, type, payload);
  }
  [[nodiscard]] bool has_pending_requests() const override {
    return inner_->has_pending_requests();
  }
  [[nodiscard]] bool holds_token() const override {
    return inner_->holds_token();
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  // MutexContext, forwarded to the endpoint.
  [[nodiscard]] int self() const override { return ctx().self(); }
  [[nodiscard]] int size() const override { return ctx().size(); }
  void send(int to_rank, std::uint16_t type,
            std::span<const std::uint8_t> payload) override {
    Tracer::Scope s(tracer_, Layer::kNet);
    ctx().send(to_rank, type, payload);
  }
  [[nodiscard]] wire::Writer writer(std::size_t reserve) override {
    return ctx().writer(reserve);
  }
  void send_writer(int to_rank, std::uint16_t type,
                   wire::Writer&& w) override {
    Tracer::Scope s(tracer_, Layer::kNet);
    ctx().send_writer(to_rank, type, std::move(w));
  }
  void send_shared(int to_rank, std::uint16_t type,
                   const Payload& payload) override {
    Tracer::Scope s(tracer_, Layer::kNet);
    ctx().send_shared(to_rank, type, payload);
  }
  [[nodiscard]] int cluster_of_rank(int rank) const override {
    return ctx().cluster_of_rank(rank);
  }
  Rng& rng() override { return ctx().rng(); }
  [[nodiscard]] SimTime now() const override { return ctx().now(); }

  // MutexObserver, forwarded to the endpoint.
  void on_cs_granted() override {
    if (samples_ != nullptr)
      samples_->push_back((ctx().now() - requested_at_).as_ms());
    observer().on_cs_granted();
  }
  void on_pending_request() override { observer().on_pending_request(); }

  std::unique_ptr<MutexAlgorithm> inner_;
  Tracer* tracer_;
  std::vector<double>* samples_;
  SimTime requested_at_;
};

/// MutexHandle handed to Coordinator: spans the coordinator's callbacks
/// (core); its calls into the endpoint reach ProbeAlgorithm's mutex spans.
class ProbeHandle final : public MutexHandle {
 public:
  ProbeHandle(MutexEndpoint& ep, Tracer* tracer) : ep_(ep), tracer_(tracer) {}

  void set_callbacks(MutexCallbacks cb) override {
    ep_.set_callbacks(MutexCallbacks{wrap(std::move(cb.on_granted)),
                                     wrap(std::move(cb.on_pending))});
  }
  void request_cs() override { ep_.request_cs(); }
  void release_cs() override { ep_.release_cs(); }
  [[nodiscard]] CsState state() const override { return ep_.state(); }
  [[nodiscard]] bool in_cs() const override { return ep_.in_cs(); }
  [[nodiscard]] bool holds_token() const override { return ep_.holds_token(); }
  [[nodiscard]] bool has_pending_requests() const override {
    return ep_.has_pending_requests();
  }
  [[nodiscard]] NodeId node() const override { return ep_.node(); }

 private:
  std::function<void()> wrap(std::function<void()> f) {
    if (!f) return f;
    return [t = tracer_, f = std::move(f)] {
      Tracer::Scope s(t, Layer::kCore);
      f();
    };
  }

  MutexEndpoint& ep_;
  Tracer* tracer_;
};

// ---------------------------------------------------------------------
// paper_grid

struct CellRun {
  Fingerprint fp;
  std::uint64_t inter_acquisitions = 0;
  std::int64_t setup_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t net_setup_ns = 0;
  std::int64_t mutex_setup_ns = 0;
  std::size_t queue_peak = 0;
};

/// One cell of the paper matrix, built as run_experiment builds it (fault-
/// free, sequential kernel). `probe` swaps in the span wrappers, which
/// requires hand-wiring the composition Composition would otherwise wire.
CellRun run_cell(const ExperimentConfig& cfg, bool probe, Tracer* tracer,
                 std::vector<double>* samples, std::vector<std::string>& errs) {
  CellRun out;
  const bool composition = cfg.mode == ExperimentConfig::Mode::kComposition;
  const std::int64_t t0 = thread_cpu_ns();

  Simulator sim;
  sim.set_event_limit(600'000'000);
  Topology topo =
      composition ? Composition::make_topology(cfg.clusters,
                                               cfg.apps_per_cluster)
                  : Topology::uniform(cfg.clusters, cfg.apps_per_cluster);
  std::shared_ptr<const LatencyModel> latency =
      cfg.latency.build(cfg.clusters);
  Rng root(cfg.seed);
  const std::int64_t n0 = thread_cpu_ns();
  auto net = std::make_unique<Network>(sim, topo, latency, root.fork(1));
  out.net_setup_ns = thread_cpu_ns() - n0;
  TraceHasher hasher;
  hasher.install(*net);

  const std::int64_t m0 = thread_cpu_ns();
  auto algo = [&](const std::string& name, std::vector<double>* sink)
      -> std::unique_ptr<MutexAlgorithm> {
    if (!probe) return make_algorithm(name);
    return std::make_unique<ProbeAlgorithm>(make_algorithm(name), tracer,
                                            sink);
  };
  std::unique_ptr<Composition> comp;
  std::vector<std::unique_ptr<MutexEndpoint>> endpoints;
  std::vector<std::unique_ptr<ProbeHandle>> handles;
  std::vector<std::unique_ptr<Coordinator>> coordinators;
  std::vector<MutexEndpoint*> mutexes;
  if (composition && !probe) {
    comp = std::make_unique<Composition>(
        *net, CompositionConfig{.intra_algorithm = cfg.intra,
                                .inter_algorithm = cfg.inter,
                                .initial_cluster = 0,
                                .protocol_base = 1,
                                .seed = root.fork(2).next_u64()});
    for (NodeId v : comp->app_nodes()) mutexes.push_back(&comp->app_mutex(v));
    comp->start();
  } else if (composition) {
    // Composition's own wiring (core/composition.cpp), with probes.
    const Rng croot(root.fork(2).next_u64());
    const ProtocolId inter_protocol = 1;
    std::vector<NodeId> coordinator_nodes;
    for (ClusterId c = 0; c < cfg.clusters; ++c)
      coordinator_nodes.push_back(topo.first_node_of(c));
    std::vector<MutexEndpoint*> inter;
    for (ClusterId c = 0; c < cfg.clusters; ++c) {
      endpoints.push_back(std::make_unique<MutexEndpoint>(
          *net, inter_protocol, coordinator_nodes, int(c),
          algo(cfg.inter, nullptr), croot.fork(1000 + c)));
      inter.push_back(endpoints.back().get());
    }
    for (MutexEndpoint* ep : inter)
      ep->init(is_token_based(cfg.inter) ? 0 : MutexAlgorithm::kNoHolder);
    std::vector<MutexEndpoint*> intra_heads;
    for (ClusterId c = 0; c < cfg.clusters; ++c) {
      const std::vector<NodeId> members = topo.nodes_of(c);
      std::vector<MutexEndpoint*> intra;
      for (std::size_t r = 0; r < members.size(); ++r) {
        endpoints.push_back(std::make_unique<MutexEndpoint>(
            *net, inter_protocol + 1 + c, members, int(r),
            algo(cfg.intra, r > 0 ? samples : nullptr),
            croot.fork(2000 + std::uint64_t(c) * 64 + r)));
        intra.push_back(endpoints.back().get());
        if (r > 0) mutexes.push_back(endpoints.back().get());
      }
      for (MutexEndpoint* ep : intra)
        ep->init(is_token_based(cfg.intra) ? 0 : MutexAlgorithm::kNoHolder);
      intra_heads.push_back(intra.front());
    }
    for (ClusterId c = 0; c < cfg.clusters; ++c) {
      handles.push_back(std::make_unique<ProbeHandle>(*intra_heads[c], tracer));
      handles.push_back(std::make_unique<ProbeHandle>(*inter[c], tracer));
      coordinators.push_back(std::make_unique<Coordinator>(
          *handles[handles.size() - 2], *handles.back()));
    }
    for (auto& co : coordinators) co->start();
  } else {
    std::vector<NodeId> members(topo.node_count());
    for (NodeId v = 0; v < topo.node_count(); ++v) members[v] = v;
    for (NodeId v = 0; v < topo.node_count(); ++v) {
      endpoints.push_back(std::make_unique<MutexEndpoint>(
          *net, 1, members, int(v), algo(cfg.flat_algorithm, samples),
          root.fork(3'000'000 + v)));
    }
    for (auto& ep : endpoints)
      ep->init(is_token_based(cfg.flat_algorithm) ? 0
                                                  : MutexAlgorithm::kNoHolder);
    for (auto& ep : endpoints) mutexes.push_back(ep.get());
  }
  out.mutex_setup_ns = thread_cpu_ns() - m0;

  WorkloadMetrics metrics;
  SafetyMonitor safety;
  std::vector<std::unique_ptr<AppProcess>> processes;
  processes.reserve(mutexes.size());
  for (std::size_t i = 0; i < mutexes.size(); ++i) {
    processes.push_back(std::make_unique<AppProcess>(
        sim, *mutexes[i], cfg.workload, root.fork(10'000 + i), metrics,
        safety));
  }
  for (auto& p : processes) p->start();
  if (tracer != nullptr) {
    sim.set_post_event_hook([&] {
      out.queue_peak = std::max(out.queue_peak, sim.pending_events());
    });
  }
  const std::int64_t t1 = thread_cpu_ns();
  out.setup_ns = t1 - t0;

  const std::int64_t w1 = wall_ns();
  {
    Tracer::Scope s(tracer, Layer::kSim);
    sim.run();
  }
  out.cpu_ns = thread_cpu_ns() - t1;
  out.wall_ns = wall_ns() - w1;

  bool drained = true;
  for (auto& p : processes) drained = drained && p->done();
  const std::string label = cfg.label();
  if (!drained) errs.push_back(label + ": a process did not finish");
  if (net->in_flight() != 0) errs.push_back(label + ": messages in flight");
  if (safety.in_cs() != 0 || safety.violations() != 0)
    errs.push_back(label + ": mutual exclusion violated");

  out.fp.trace_hash = hasher.value();
  out.fp.completed = metrics.completed_cs;
  out.fp.events = sim.events_processed();
  out.fp.messages = net->counters();
  out.fp.obtaining = metrics.obtaining;
  if (comp) {
    out.inter_acquisitions = comp->total_inter_acquisitions();
  } else {
    for (auto& co : coordinators)
      out.inter_acquisitions += co->inter_acquisitions();
  }
  return out;
}

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(const Options& o) {
    const std::vector<std::string> algos = {"naimi", "martin", "suzuki"};
    ExperimentConfig base;
    base.clusters = 9;
    base.apps_per_cluster = 20;
    base.latency = LatencySpec::grid5000(0.05);
    base.workload.alpha = SimDuration::ms(10);
    base.workload.rho = 180.0;
    base.workload.cs_count = o.smoke ? 3 : 100;
    base.seed = o.seed;
    for (const auto& intra : algos) {
      for (const auto& inter : algos) {
        ExperimentConfig c = base;
        c.mode = ExperimentConfig::Mode::kComposition;
        c.intra = intra;
        c.inter = inter;
        cells_.push_back(c);
      }
    }
    for (const auto& flat : algos) {
      ExperimentConfig c = base;
      c.mode = ExperimentConfig::Mode::kFlat;
      c.flat_algorithm = flat;
      cells_.push_back(c);
    }
  }

  void warm_up() override {
    // The program's own entry point is the reference every pass must
    // reproduce; the probed pass collects the raw obtaining samples that
    // AppProcess does not expose. The program's resident memory is
    // measured around the entry point, before any raw sample is kept.
    const PeakRssProbe probe;
    for (const ExperimentConfig& c : cells_) {
      ExperimentConfig hashed = c;
      hashed.hash_trace = true;
      reference_.push_back(run_experiment(hashed));
    }
    set_world_peak(probe);
    std::vector<std::string> errs;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::size_t before = samples_.size();
      const CellRun r = run_cell(cells_[i], true, nullptr, &samples_, errs);
      const ExperimentResult& ref = reference_[i];
      const std::string label = cells_[i].label();
      check(r.fp.trace_hash == ref.trace_hash,
            label + ": probed world's trace hash differs from run_experiment");
      check(r.fp.completed == ref.total_cs && r.fp.messages == ref.messages &&
                r.fp.obtaining == ref.obtaining && r.fp.events == ref.events,
            label + ": probed world's statistics differ from run_experiment");
      check(samples_.size() - before == ref.total_cs,
            label + ": one raw obtaining sample per CS expected");
      check(r.inter_acquisitions == ref.inter_acquisitions,
            label + ": inter acquisitions differ from run_experiment");
    }
    for (auto& e : errs) fail(e);
  }

  PassSample pass(Tracer* tracer) override {
    PassSample s;
    s.traced = tracer != nullptr;
    std::vector<std::string> errs;
    std::vector<Fingerprint> fps;
    queue_peak_ = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const CellRun r =
          run_cell(cells_[i], tracer != nullptr, tracer, nullptr, errs);
      s.setup_ns += r.setup_ns;
      s.cpu_ns += r.cpu_ns;
      s.wall_ns += r.wall_ns;
      s.net_setup_ns += r.net_setup_ns;
      s.mutex_setup_ns += r.mutex_setup_ns;
      s.attempted += std::uint64_t(cells_[i].application_count()) *
                     std::uint64_t(cells_[i].workload.cs_count);
      s.completed += r.fp.completed;
      queue_peak_ = std::max(queue_peak_, r.queue_peak);
      const ExperimentResult& ref = reference_[i];
      check(r.fp.trace_hash == ref.trace_hash,
            cells_[i].label() + ": trace hash differs from run_experiment");
      fps.push_back(r.fp);
    }
    for (auto& e : errs) fail(e);
    if (first_.empty()) {
      first_ = fps;
    } else {
      check(fps == first_, "paper_grid: pass statistics differ from pass 0");
    }
    return s;
  }

  Summary summary(const std::vector<PassSample>& /*passes*/) const override {
    Summary out;
    DurationStats all;
    MessageCounters msgs;
    std::uint64_t cs = 0;
    std::uint64_t events = 0;
    std::uint64_t inter_acq = 0;
    std::uint64_t composed_cs = 0;
    for (std::size_t i = 0; i < reference_.size(); ++i) {
      const ExperimentResult& r = reference_[i];
      all.merge(r.obtaining);
      cs += r.total_cs;
      events += r.events;
      msgs.sent += r.messages.sent;
      msgs.inter_cluster += r.messages.inter_cluster;
      msgs.bytes_total += r.messages.bytes_total;
      msgs.bytes_inter += r.messages.bytes_inter;
      msgs.retransmitted += r.messages.retransmitted;
      msgs.dropped += r.messages.dropped;
      if (cells_[i].mode == ExperimentConfig::Mode::kComposition) {
        inter_acq += r.inter_acquisitions;
        composed_cs += r.total_cs;
      }
    }
    const double n = double(std::max<std::uint64_t>(cs, 1));
    out.obtain_ms = all.mean_ms();
    out.obtain_sd_ms = all.stddev_ms();
    std::vector<double> s = samples_;
    out.obtain_samples = s.size();
    out.obtain_p50_ms = percentile(s, 0.50);
    out.obtain_p99_ms = percentile(s, 0.99);
    out.inter_msgs_per_cs = double(msgs.inter_cluster) / n;
    out.inter_bytes_per_cs = double(msgs.bytes_inter) / n;
    out.counts = {
        {"sim.events_per_cs", double(events) / n},
        {"sim.queue_peak", double(queue_peak_)},
        {"net.msgs_per_cs", double(msgs.sent) / n},
        {"net.bytes_per_cs", double(msgs.bytes_total) / n},
        {"net.retransmits_per_cs", double(msgs.retransmitted) / n},
        {"net.drops_per_cs", double(msgs.dropped) / n},
        {"core.inter_acquisitions_per_cs",
         double(inter_acq) / double(std::max<std::uint64_t>(composed_cs, 1))},
    };
    out.unreached = {"service.setup_s", "service.session_ns_per_cs",
                     "workload.app_ns_per_cs", "service.batched_share",
                     "service.batch_bytes_saved_per_cs",
                     "service.lease_renewals_per_cs", "service.revocations",
                     "fault.token_losses", "fault.regenerations",
                     "fault.false_alarms", "fault.recovery_ms",
                     "transport.datagrams_per_cs", "transport.acks_per_cs",
                     "transport.retransmits_per_cs",
                     "transport.node_cpu_us_per_cs",
                     "transport.client_cpu_us_per_cs",
                     "transport.generator_lag_p99_ms",
                     "transport.send_errors"};
    out.note = "12 cells: 3x3 compositions + 3 flat baselines";
    return out;
  }

 private:
  std::vector<ExperimentConfig> cells_;
  std::vector<ExperimentResult> reference_;
  std::vector<double> samples_;
  std::vector<Fingerprint> first_;
  std::size_t queue_peak_ = 0;
};

// ---------------------------------------------------------------------
// service_k64 / service_lossy

ServiceConfig service_config(const Options& o, bool lossy) {
  ServiceConfig c;
  c.locks = 64;
  c.intra = "naimi";
  c.inter = "naimi";
  c.batching = true;  // forced off by the fault path on service_lossy
  c.clusters = 9;
  c.apps_per_cluster = 20;
  c.latency = LatencySpec::grid5000(0.05);
  // Rates sit below the hottest lock's saturation (about 500 arrivals/s
  // clean; lower under loss, where a lost token stalls its queue for an ARQ
  // timeout): README.md shows the mean obtaining time flat across windows
  // at these rates. Windows give 32k arrivals per pass clean and 48k
  // lossy, whose tail rests on rarer events, so a seed's p99 rests on a few
  // hundred samples.
  c.open_loop.arrivals_per_sec = lossy ? 100.0 : 250.0;
  c.open_loop.window = SimDuration::sec(o.smoke ? 2 : (lossy ? 480 : 128));
  if (o.rate > 0) c.open_loop.arrivals_per_sec = o.rate;
  if (o.window_s > 0)
    c.open_loop.window = SimDuration::ms(std::int64_t(o.window_s * 1e3));
  c.open_loop.zipf_s = 0.9;
  c.open_loop.hold = SimDuration::ms(10);
  c.seed = o.seed;
  if (lossy) {
    c.resilience.leases = true;
    c.faults.enabled = true;
    c.faults.recovery = true;
    const SimTime end = SimTime::zero() + c.open_loop.window;
    for (ClusterId a = 0; a < c.clusters; ++a)
      for (ClusterId b = a + 1; b < c.clusters; ++b)
        c.faults.plan.lossy_link(a, b, 0.02, SimTime::zero(), end);
  }
  return c;
}

struct ServiceRun {
  Fingerprint fp;
  std::uint64_t arrivals = 0;
  std::uint64_t sheds = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t other_failures = 0;  // cancelled / session down
  std::uint64_t interrupted = 0;
  std::uint64_t revocations = 0;
  std::uint64_t lease_renewals = 0;
  std::uint64_t inter_acquisitions = 0;
  std::uint64_t batched = 0;
  std::uint64_t lock_messages = 0;
  std::uint64_t batch_bytes_saved = 0;
  TokenRecoveryManager::Stats recovery;
  std::int64_t setup_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t net_setup_ns = 0;
  std::int64_t service_setup_ns = 0;
  std::size_t queue_peak = 0;
};

/// One service world, built as run_service_experiment builds it for a
/// sequential, checker-free run without churn or holder crashes.
ServiceRun run_service_world(const ServiceConfig& cfg, Tracer* tracer,
                             std::vector<double>* samples,
                             std::vector<std::string>& errs) {
  ServiceRun out;
  const std::int64_t t0 = thread_cpu_ns();
  Simulator sim;
  sim.set_event_limit(600'000'000);
  Topology topo =
      Composition::make_topology(cfg.clusters, cfg.apps_per_cluster);
  std::shared_ptr<const LatencyModel> latency =
      cfg.latency.build(cfg.clusters);
  Rng root(cfg.seed);
  const std::int64_t n0 = thread_cpu_ns();
  auto net = std::make_unique<Network>(sim, topo, latency, root.fork(1));
  out.net_setup_ns = thread_cpu_ns() - n0;
  TraceHasher hasher;
  hasher.install(*net);

  const bool faulted = cfg.faults.enabled;
  const std::int64_t s0 = thread_cpu_ns();
  auto svc = std::make_unique<LockService>(
      *net, LockServiceConfig{.locks = cfg.locks,
                              .lock_names = cfg.lock_names,
                              .intra_algorithm = cfg.intra,
                              .inter_algorithm = cfg.inter,
                              .placement = cfg.placement,
                              .batching = cfg.batching && !faulted,
                              .seed = root.fork(2).next_u64(),
                              .resilience = cfg.resilience});
  out.service_setup_ns = thread_cpu_ns() - s0;
  const std::vector<NodeId>& apps = svc->app_nodes();

  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<TokenRecoveryManager> recovery;
  std::vector<std::unique_ptr<CoordinatorFailover>> failovers;
  if (faulted) {
    injector = std::make_unique<FaultInjector>(*net, cfg.faults.plan);
    const RecoveryConfig& rc = cfg.faults.recovery_cfg;
    recovery = std::make_unique<TokenRecoveryManager>(*net, rc);
    for (LockId l = 0; l < cfg.locks; ++l) {
      Composition& comp = svc->composition(l);
      const std::string tag = "lock[" + std::to_string(l) + "].";
      if (rc.enable_retransmit) {
        net->set_reliable(comp.inter_protocol(), rc.retransmit);
        for (ClusterId c = 0; c < comp.cluster_count(); ++c)
          net->set_reliable(comp.intra_protocol(c), rc.retransmit);
      }
      recovery->watch_instance(tag + "inter", comp.inter_protocol(),
                               comp.inter_instance());
      for (ClusterId c = 0; c < comp.cluster_count(); ++c) {
        recovery->watch_instance(tag + "intra[" + std::to_string(c) + "]",
                                 comp.intra_protocol(c),
                                 comp.intra_instance(c));
      }
      failovers.push_back(
          std::make_unique<CoordinatorFailover>(comp, *injector));
    }
    injector->arm();
  }

  struct Account {
    SafetyMonitor safety;
    bool in_cs = false;
    int cur_node = -1;
    std::uint64_t cur_fence = 0;
  };
  std::vector<Account> accounts(cfg.locks);
  // Per lock, merged in lock order afterwards, exactly as
  // run_service_experiment aggregates them.
  std::vector<DurationStats> obtaining(cfg.locks);
  const bool leases = cfg.resilience.leases;
  if (svc->leases() != nullptr) {
    svc->leases()->set_hooks(LeaseManager::Hooks{
        .on_grant = {},
        .on_release =
            [&](LockId l, std::uint64_t fence, bool voluntary) {
              Account& acct = accounts[l];
              if (!voluntary && acct.in_cs && acct.cur_fence == fence) {
                acct.safety.exit(int(l), acct.cur_node);
                acct.in_cs = false;
              }
            },
        .on_revocation =
            [&](LockId, bool open) {
              if (open) ++out.revocations;
            },
    });
  }
  svc->start();

  const ZipfSampler zipf(cfg.locks, cfg.open_loop.zipf_s);
  Rng traffic = root.fork(3);
  const std::vector<OpenLoopArrival> arrivals =
      materialize_open_loop(cfg.open_loop, apps, zipf, traffic);
  out.arrivals = arrivals.size();
  const AcquireOptions opts{.deadline = cfg.resilience.default_deadline};
  LockService& service = *svc;
  for (const OpenLoopArrival& a : arrivals) {
    sim.schedule_at(a.at, [&, a] {
      Tracer::Scope w(tracer, Layer::kWorkload);
      Tracer::Scope s(tracer, Layer::kService);
      service.session(a.node).acquire(a.lock, opts, [&, a](
                                                        AcquireResult r) {
        Tracer::Scope w2(tracer, Layer::kWorkload);
        if (r.outcome != AcquireOutcome::kGranted) {
          if (r.outcome == AcquireOutcome::kShed) {
            ++out.sheds;
          } else if (r.outcome == AcquireOutcome::kDeadlineExpired) {
            ++out.deadline_misses;
          } else {
            ++out.other_failures;
          }
          return;
        }
        const SimDuration obtained = sim.now() - a.at;
        obtaining[a.lock].add(obtained);
        if (samples != nullptr) samples->push_back(obtained.as_ms());
        Account& acct = accounts[a.lock];
        acct.safety.enter(sim.now(), int(a.lock), int(a.node));
        acct.in_cs = true;
        acct.cur_node = int(a.node);
        acct.cur_fence = r.fence;
        sim.schedule_after(cfg.open_loop.hold, [&, a, fence = r.fence] {
          Tracer::Scope w3(tracer, Layer::kWorkload);
          Account& end = accounts[a.lock];
          ClientSession& session = service.session(a.node);
          const bool current = end.in_cs && end.cur_node == int(a.node) &&
                               (!leases || end.cur_fence == fence);
          if (!current) {
            ++out.interrupted;
            return;
          }
          end.safety.exit(int(a.lock), int(a.node));
          end.in_cs = false;
          ++out.fp.completed;
          Tracer::Scope s3(tracer, Layer::kService);
          if (leases) {
            if (!session.release_if_current(a.lock, fence))
              errs.push_back("fenced release refused for a current holder");
          } else {
            session.release(a.lock);
          }
        });
      });
    });
  }
  if (tracer != nullptr) {
    sim.set_post_event_hook([&] {
      out.queue_peak = std::max(out.queue_peak, sim.pending_events());
    });
  }
  const std::int64_t t1 = thread_cpu_ns();
  out.setup_ns = t1 - t0;

  const std::int64_t w1 = wall_ns();
  {
    Tracer::Scope s(tracer, Layer::kSim);
    sim.run();
  }
  out.cpu_ns = thread_cpu_ns() - t1;
  out.wall_ns = wall_ns() - w1;

  if (net->in_flight() != 0) errs.push_back("messages in flight after drain");
  if (svc->batcher() != nullptr && svc->batcher()->in_transit() != 0)
    errs.push_back("batch frames in transit after drain");
  for (const NodeId v : apps)
    if (!service.session(v).idle()) errs.push_back("a session is not idle");
  for (const Account& acct : accounts) {
    if (acct.safety.violations() != 0 || acct.safety.in_cs() != 0)
      errs.push_back("mutual exclusion violated on a lock");
  }

  out.fp.trace_hash = hasher.value();
  out.fp.events = sim.events_processed();
  out.fp.messages = net->counters();
  for (const DurationStats& d : obtaining) out.fp.obtaining.merge(d);
  for (LockId l = 0; l < cfg.locks; ++l) {
    out.inter_acquisitions += svc->composition(l).total_inter_acquisitions();
    out.lock_messages += svc->messages(l);
  }
  if (svc->batcher() != nullptr) {
    out.batched = svc->batcher()->stats().absorbed;
    out.batch_bytes_saved = svc->batcher()->stats().bytes_saved;
  }
  if (svc->leases() != nullptr)
    out.lease_renewals = svc->leases()->stats().renews_received;
  if (recovery) out.recovery = recovery->stats();
  return out;
}

class Service final : public Workload {
 public:
  Service(const Options& o, bool lossy)
      : cfg_(service_config(o, lossy)), lossy_(lossy) {}

  void warm_up() override {
    ServiceConfig hashed = cfg_;
    hashed.hash_trace = true;
    const PeakRssProbe probe;
    reference_ = run_service_experiment(hashed);
    set_world_peak(probe);
    std::vector<std::string> errs;
    first_ = run_service_world(cfg_, nullptr, &samples_, errs);
    for (auto& e : errs) fail(e);
    check_run(first_);
    check(first_.fp.trace_hash == reference_.trace_hash,
          "service world's trace hash differs from run_service_experiment");
    check(first_.fp.completed == reference_.total_cs &&
              first_.fp.messages == reference_.messages &&
              first_.fp.obtaining == reference_.obtaining &&
              first_.fp.events == reference_.events,
          "service world's statistics differ from run_service_experiment");
    check(samples_.size() == first_.fp.obtaining.count(),
          "one raw obtaining sample per grant expected");
  }

  PassSample pass(Tracer* tracer) override {
    std::vector<std::string> errs;
    const ServiceRun r = run_service_world(cfg_, tracer, nullptr, errs);
    for (auto& e : errs) fail(e);
    check_run(r);
    check(r.fp == first_.fp, "service pass statistics differ from pass 0");
    queue_peak_ = std::max(queue_peak_, r.queue_peak);
    PassSample s;
    s.traced = tracer != nullptr;
    s.setup_ns = r.setup_ns;
    s.cpu_ns = r.cpu_ns;
    s.wall_ns = r.wall_ns;
    s.net_setup_ns = r.net_setup_ns;
    s.service_setup_ns = r.service_setup_ns;
    s.attempted = r.arrivals;
    s.completed = r.fp.completed;
    return s;
  }

  Summary summary(const std::vector<PassSample>& /*passes*/) const override {
    Summary out;
    const ServiceRun& r = first_;
    const double n = double(std::max<std::uint64_t>(r.fp.completed, 1));
    out.obtain_ms = r.fp.obtaining.mean_ms();
    out.obtain_sd_ms = r.fp.obtaining.stddev_ms();
    std::vector<double> s = samples_;
    out.obtain_samples = s.size();
    out.obtain_p50_ms = percentile(s, 0.50);
    out.obtain_p99_ms = percentile(s, 0.99);
    out.inter_msgs_per_cs = double(r.fp.messages.inter_cluster) / n;
    out.inter_bytes_per_cs = double(r.fp.messages.bytes_inter) / n;
    const double lock_msgs =
        double(std::max<std::uint64_t>(r.lock_messages, 1));
    out.counts = {
        {"sim.events_per_cs", double(r.fp.events) / n},
        {"sim.queue_peak", double(queue_peak_)},
        {"net.msgs_per_cs", double(r.fp.messages.sent) / n},
        {"net.bytes_per_cs", double(r.fp.messages.bytes_total) / n},
        {"net.retransmits_per_cs", double(r.fp.messages.retransmitted) / n},
        {"net.drops_per_cs", double(r.fp.messages.dropped) / n},
        {"core.inter_acquisitions_per_cs", double(r.inter_acquisitions) / n},
        {"service.batched_share", double(r.batched) / lock_msgs},
        {"service.batch_bytes_saved_per_cs", double(r.batch_bytes_saved) / n},
        {"service.lease_renewals_per_cs", double(r.lease_renewals) / n},
        {"service.revocations", double(r.revocations)},
        {"fault.token_losses", double(r.recovery.losses_detected)},
        {"fault.regenerations", double(r.recovery.regenerations)},
        {"fault.false_alarms", double(r.recovery.false_alarms)},
        {"fault.recovery_ms", r.recovery.recovery_latency.count() == 0
                                  ? 0.0
                                  : r.recovery.recovery_latency.mean_ms()},
    };
    // Endpoints, handlers, sends and coordinators live inside LockService.
    // No sockets in a simulated world.
    out.unreached = {"mutex.setup_s",
                     "mutex.handler_ns_per_cs",
                     "net.send_ns_per_msg",
                     "core.coordinator_ns_per_cs",
                     "transport.datagrams_per_cs",
                     "transport.acks_per_cs",
                     "transport.retransmits_per_cs",
                     "transport.node_cpu_us_per_cs",
                     "transport.client_cpu_us_per_cs",
                     "transport.generator_lag_p99_ms",
                     "transport.send_errors"};
    out.note = lossy_ ? "K=64 Naimi-Naimi, 2% inter-cluster loss, leases"
                      : "K=64 Naimi-Naimi, batching";
    return out;
  }

 private:
  void check_run(const ServiceRun& r) {
    check(r.arrivals == r.fp.completed + r.sheds + r.deadline_misses +
                           r.other_failures + r.interrupted,
          "accounting closure broken: arrivals != completed + sheds + "
          "deadline misses + other failures + interrupted");
  }

  ServiceConfig cfg_;
  bool lossy_;
  ExperimentResult reference_;
  ServiceRun first_;
  std::vector<double> samples_;
  std::size_t queue_peak_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_grid(const Options& o) {
  return std::make_unique<PaperGrid>(o);
}

std::unique_ptr<Workload> make_service(const Options& o, bool lossy) {
  return std::make_unique<Service>(o, lossy);
}

}  // namespace perfbench
