// lockd_loopback: a lockd grid hosted in this process on 127.0.0.1 (one
// UdpTransport + LockdNode per node, as the transport tests' TestGrid
// hosts one), driven open-loop by one client thread on one socket that
// replays materialize_open_loop's trace through the CLIENT protocol.
//
// A shared host takes the CPU away in bursts of 0.5-7 ms, tens of times a
// second in noisy phases. Three measures keep that out of the figures
// (README.md): a real-time thread detects those gaps and a request whose
// wait overlaps one is dropped from that pass; every pass replays the
// same trace on a fresh grid and each request's obtaining time is its
// median over the passes; and each pass is normalised by the load
// generator's own CPU per request. Latency the program adds to a request
// recurs in every pass and stays.
//
// The client is the benchmark's own rather than run_campaign: an open-loop
// generator must time each request from when it was *due*, so a stall
// shows in every request queued behind it, and must report how late it
// sent. run_campaign times from the actual send and keeps no lag.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gridmutex/transport/client.hpp"
#include "gridmutex/transport/frame.hpp"
#include "gridmutex/transport/node.hpp"
#include "gridmutex/transport/udp.hpp"
#include "gridmutex/workload/open_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gmx;
using namespace gmx::transport;

namespace {

constexpr std::uint32_t kControlTimeoutMs = 5000;

/// Every node of `cfg` on its own loopback socket, peered from the bound
/// ports before any loop starts. A send hook on each transport counts the
/// frames that cross clusters — the wire counters carry no cluster split.
class Grid {
 public:
  struct Wire {
    std::uint64_t inter_frames = 0;
    std::uint64_t inter_bytes = 0;
  };

  explicit Grid(const GridConfig& cfg) : cfg_(cfg), wire_(cfg.node_count()) {
    const std::uint32_t n = cfg_.node_count();
    const Topology topo = cfg_.topology();
    for (NodeId i = 0; i < n; ++i)
      tps_.push_back(std::make_unique<UdpTransport>(i, "127.0.0.1", 0));
    for (const auto& tp : tps_)
      addrs_.push_back(PeerAddr::loopback(tp->port()));
    for (NodeId i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<LockdNode>(*tps_[i], cfg_));
      for (NodeId j = 0; j < n; ++j)
        if (j != i) tps_[i]->add_peer(j, addrs_[j]);
      // Written only by transport i's loop thread; read after stop().
      tps_[i]->set_send_fault([w = &wire_[i], topo, n](const Message& m) {
        if (m.src < n && m.dst < n &&
            topo.cluster_of(m.src) != topo.cluster_of(m.dst)) {
          ++w->inter_frames;
          w->inter_bytes += m.wire_size();
        }
        return int(UdpTransport::kPass);
      });
    }
    for (const auto& tp : tps_) tp->start();
  }

  ~Grid() { stop(); }
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  void stop() {
    for (const auto& tp : tps_)
      if (tp->running()) tp->stop();
  }

  [[nodiscard]] const std::vector<PeerAddr>& addrs() const { return addrs_; }
  [[nodiscard]] const UdpTransport& transport(NodeId i) const {
    return *tps_[i];
  }
  [[nodiscard]] const Wire& wire(NodeId i) const { return wire_[i]; }

 private:
  GridConfig cfg_;
  std::vector<Wire> wire_;
  std::vector<std::unique_ptr<UdpTransport>> tps_;
  std::vector<std::unique_ptr<LockdNode>> nodes_;
  std::vector<PeerAddr> addrs_;
};

struct GenResult {
  std::vector<double> obtain_ms;  // per request: grant - due, NaN if none
  std::vector<double> lag_ms;     // first send - due time
  std::uint64_t grants = 0;
  std::uint64_t sheds = 0;
  std::uint64_t expired = 0;
  std::uint64_t fence_violations = 0;
  std::uint64_t exclusion_violations = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t resends = 0;
  std::uint64_t decode_errors = 0;
  bool timed_out = false;
  std::int64_t cpu_ns = 0;
  std::int64_t start_ns = 0;  // wall clock of trace instant 0
};

/// Host-gap detector: a real-time (SCHED_FIFO) thread that wakes every
/// millisecond and records each wake-up more than kLateNs late. No thread
/// of the program can delay it — it preempts them all on this CPU — so a
/// late wake-up means the CPU itself was taken away: the vCPU descheduled
/// by the hypervisor. Without the privilege for SCHED_FIFO it runs at
/// normal priority and `fifo()` says so.
class GapWatch {
 public:
  struct Gap {
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  GapWatch() : thread_([this] { loop(); }) {}
  ~GapWatch() { stop(); }
  GapWatch(const GapWatch&) = delete;
  GapWatch& operator=(const GapWatch&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  /// Read after stop().
  [[nodiscard]] const std::vector<Gap>& gaps() const { return gaps_; }
  [[nodiscard]] std::int64_t cpu_ns() const { return cpu_ns_; }
  [[nodiscard]] bool fifo() const { return fifo_; }

  /// Whether [from, to] overlaps a recorded gap.
  [[nodiscard]] bool overlaps(std::int64_t from, std::int64_t to) const {
    const auto it = std::lower_bound(
        gaps_.begin(), gaps_.end(), from,
        [](const Gap& g, std::int64_t t) { return g.end_ns <= t; });
    return it != gaps_.end() && it->start_ns < to;
  }

 private:
  static constexpr std::int64_t kPeriodNs = 1'000'000;
  static constexpr std::int64_t kLateNs = 500'000;

  void loop() {
    const sched_param sp{1};
    fifo_ = pthread_setschedparam(pthread_self(), SCHED_FIFO, &sp) == 0;
    (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    gaps_.reserve(1024);
    std::int64_t last = wall_ns();
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::int64_t due = last + kPeriodNs;
      const timespec ts{time_t(due / 1'000'000'000),
                        long(due % 1'000'000'000)};
      clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      const std::int64_t now = wall_ns();
      // The CPU was away somewhere between the last wake-up and this one.
      if (now - due > kLateNs) gaps_.push_back({last, now});
      last = now;
    }
    cpu_ns_ = thread_cpu_ns();
  }

  std::atomic<bool> stop_{false};
  std::vector<Gap> gaps_;
  std::int64_t cpu_ns_ = 0;
  bool fifo_ = false;
  std::thread thread_;
};

/// The open-loop client: one thread, one non-blocking UDP socket. Sends
/// each acquire when due, holds each grant for `hold_ns`, releases, and
/// retransmits any request unanswered after `retry_ns` (lockd dedups).
class Generator {
 public:
  Generator(const std::vector<OpenLoopArrival>& trace,
            const std::vector<PeerAddr>& nodes, ProtocolId protocol,
            std::uint32_t locks, std::int64_t hold_ns)
      : trace_(trace),
        nodes_(nodes),
        protocol_(protocol),
        hold_ns_(hold_ns),
        reqs_(trace.size()),
        last_fence_(locks, 0),
        holding_(locks, 0) {
    res_.obtain_ms.assign(trace.size(), std::nan(""));
    fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("generator: socket failed");
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      close(fd_);
      throw std::runtime_error("generator: bind failed");
    }
    client_id_ = (std::uint64_t(getpid()) << 40) ^ std::uint64_t(wall_ns());
  }
  ~Generator() { close(fd_); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  GenResult run() {
    const std::int64_t cpu0 = thread_cpu_ns();
    // Trace instant 0 lands a little after the thread starts so the first
    // arrivals are not late by construction.
    start_ = wall_ns() + 2'000'000;
    res_.start_ns = start_;
    const std::int64_t give_up =
        start_ + (trace_.empty() ? 0 : trace_.back().at.count_ns()) +
        20'000'000'000;
    std::int64_t next_sweep = start_;
    while (completed_ < trace_.size()) {
      std::int64_t now = wall_ns();
      if (now > give_up) {
        res_.timed_out = true;
        break;
      }
      while (next_ < trace_.size() && due(next_) <= now) {
        Req& r = reqs_[next_];
        send_acquire(next_);
        now = wall_ns();
        r.last_send = now;
        res_.lag_ms.push_back(double(now - due(next_)) / 1e6);
        ++next_;
      }
      while (!releases_.empty() && releases_.top().first <= now) {
        const std::size_t i = releases_.top().second;
        releases_.pop();
        Req& r = reqs_[i];
        --holding_[trace_[i].lock];
        r.state = State::kReleasing;
        send_release(i);
        r.last_send = wall_ns();
      }
      if (now >= next_sweep) {
        resend_stale(now);
        next_sweep = now + kSweepNs;
      }
      std::int64_t wake = next_sweep;
      if (next_ < trace_.size()) wake = std::min(wake, due(next_));
      if (!releases_.empty()) wake = std::min(wake, releases_.top().first);
      wait_readable(std::max<std::int64_t>(0, wake - wall_ns()));
      drain();
    }
    res_.cpu_ns = thread_cpu_ns() - cpu0;
    return std::move(res_);
  }

 private:
  enum class State : std::uint8_t {
    kPending,
    kAwaitGrant,
    kHolding,
    kReleasing,
    kDone
  };
  struct Req {
    State state = State::kPending;
    std::int64_t last_send = 0;
  };
  static constexpr std::int64_t kRetryNs = 250'000'000;
  static constexpr std::int64_t kSweepNs = 50'000'000;

  [[nodiscard]] std::int64_t due(std::size_t i) const {
    return start_ + trace_[i].at.count_ns();
  }

  void send_acquire(std::size_t i) {
    reqs_[i].state = State::kAwaitGrant;
    wire::Writer w;
    w.u64(client_id_);
    w.u64(std::uint64_t(i) + 1);
    w.varint(trace_[i].lock);
    w.varint(0);  // no deadline
    send(trace_[i].node, ClientMsg::kAcquire, w.take());
  }

  void send_release(std::size_t i) {
    wire::Writer w;
    w.u64(client_id_);
    w.u64(std::uint64_t(i) + 1);
    w.varint(trace_[i].lock);
    send(trace_[i].node, ClientMsg::kRelease, w.take());
  }

  void send(NodeId node, ClientMsg type, std::vector<std::uint8_t> payload) {
    Message m;
    m.src = kInvalidNode;
    m.dst = node;
    m.protocol = protocol_;
    m.type = std::uint16_t(type);
    m.payload = std::move(payload);
    wire::Writer w;
    begin_datagram(w);
    append_frame(w, m);
    const std::vector<std::uint8_t> bytes = w.take();
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(nodes_[node].ip);
    sa.sin_port = htons(nodes_[node].port);
    if (sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0)
      ++res_.send_errors;
  }

  void resend_stale(std::int64_t now) {
    for (std::size_t i = 0; i < next_; ++i) {
      Req& r = reqs_[i];
      if (now - r.last_send < kRetryNs) continue;
      if (r.state == State::kAwaitGrant) {
        send_acquire(i);
      } else if (r.state == State::kReleasing) {
        send_release(i);
      } else {
        continue;
      }
      r.last_send = now;
      ++res_.resends;
    }
  }

  void wait_readable(std::int64_t timeout_ns) {
    pollfd p{fd_, POLLIN, 0};
    const timespec ts{time_t(timeout_ns / 1'000'000'000),
                      long(timeout_ns % 1'000'000'000)};
    ppoll(&p, 1, &ts, nullptr);
  }

  void drain() {
    std::uint8_t buf[kMaxDatagramBytes];
    for (;;) {
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return;
      const std::int64_t now = wall_ns();
      try {
        const Payload dgram(std::span<const std::uint8_t>(buf, std::size_t(n)));
        for (const Message& m : decode_datagram(dgram))
          if (m.protocol == protocol_) on_reply(m, now);
      } catch (const wire::WireError&) {
        ++res_.decode_errors;
      }
    }
  }

  void on_reply(const Message& m, std::int64_t now) {
    wire::Reader r(m.payload);
    const std::uint64_t req_id = r.u64();
    if (req_id == 0 || req_id > reqs_.size()) return;
    const std::size_t i = std::size_t(req_id - 1);
    Req& req = reqs_[i];
    const LockId lock = trace_[i].lock;
    switch (ClientMsg(m.type)) {
      case ClientMsg::kGranted: {
        if (req.state != State::kAwaitGrant) return;  // duplicate reply
        ++res_.grants;
        res_.obtain_ms[i] = double(now - due(i)) / 1e6;
        (void)r.varint();
        const std::uint64_t fence = r.u64();
        if (fence <= last_fence_[lock]) ++res_.fence_violations;
        last_fence_[lock] = std::max(last_fence_[lock], fence);
        if (holding_[lock] != 0) ++res_.exclusion_violations;
        ++holding_[lock];
        req.state = State::kHolding;
        releases_.emplace(now + hold_ns_, i);
        return;
      }
      case ClientMsg::kShed:
      case ClientMsg::kExpired:
        if (req.state != State::kAwaitGrant) return;
        ++(ClientMsg(m.type) == ClientMsg::kShed ? res_.sheds : res_.expired);
        req.state = State::kDone;
        ++completed_;
        return;
      case ClientMsg::kReleased:
        if (req.state != State::kReleasing) return;
        req.state = State::kDone;
        ++completed_;
        return;
      default:
        return;
    }
  }

  const std::vector<OpenLoopArrival>& trace_;
  const std::vector<PeerAddr>& nodes_;
  ProtocolId protocol_;
  std::int64_t hold_ns_;
  int fd_ = -1;
  std::uint64_t client_id_ = 0;
  std::int64_t start_ = 0;
  std::vector<Req> reqs_;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  std::vector<std::uint64_t> last_fence_;
  std::vector<std::uint32_t> holding_;
  std::priority_queue<std::pair<std::int64_t, std::size_t>,
                      std::vector<std::pair<std::int64_t, std::size_t>>,
                      std::greater<>>
      releases_;
  GenResult res_;
};

class LockdLoopback final : public Workload {
 public:
  explicit LockdLoopback(const Options& o) {
    // The xvalidate shape of docs/TRANSPORT.md.
    grid_.clusters = 2;
    grid_.apps_per_cluster = 4;
    grid_.locks = 4;
    grid_.intra_algorithm = "naimi";
    grid_.inter_algorithm = "naimi";
    grid_.seed = o.seed;
    // 3000 arrivals per pass; five passes fill a 15 s run. Holds are
    // short so that few requests queue behind a holder: how many do
    // depends on the seed's arrival pattern, and with 1 ms holds the
    // queued few set obtain_sd_ms and obtain_p99_ms (README.md).
    OpenLoopParams ol;
    ol.arrivals_per_sec = 1000.0;
    ol.window = o.smoke ? SimDuration::ms(300) : SimDuration::sec(3);
    ol.zipf_s = 0.9;
    ol.hold = SimDuration::us(100);
    hold_ns_ = ol.hold.count_ns();
    // Drawn exactly as run_campaign draws it: fork(3) of the grid seed.
    Rng traffic = Rng(grid_.seed).fork(3);
    const ZipfSampler zipf(grid_.locks, ol.zipf_s);
    trace_ = materialize_open_loop(ol, grid_.app_nodes(), zipf, traffic);
  }

  void warm_up() override {
    // The whole trace on a throwaway grid: first-use page faults and
    // socket buffers, untimed. The grid's resident memory is measured
    // here, around a world that holds nothing of the benchmark's but the
    // client's request table.
    const PeakRssProbe probe;
    (void)run_pass(trace_, false, false);
    set_world_peak(probe);
  }

  PassSample pass(Tracer* tracer) override {
    return run_pass(trace_, tracer != nullptr, true);
  }


  Summary summary(const std::vector<PassSample>& passes) const override {
    Summary out;
    // Each pass normalised by its reference, as host cost is; then each
    // request's median over the passes; then the statistics over the
    // requests.
    std::vector<double> factor;
    for (std::size_t j = 0; j < std::min(passes.size(), obtain_.size()); ++j)
      factor.push_back(kRefNominalNs / pass_reference_ns(passes[j]));
    std::vector<double> typical;
    std::vector<double> across;
    for (std::size_t i = 0; i < trace_.size(); ++i) {
      across.clear();
      for (std::size_t j = 0; j < factor.size(); ++j)
        if (!std::isnan(obtain_[j][i]))
          across.push_back(obtain_[j][i] * factor[j]);
      if (across.empty()) continue;
      std::sort(across.begin(), across.end());
      const std::size_t m = across.size() / 2;
      typical.push_back(across.size() % 2 == 1
                            ? across[m]
                            : 0.5 * (across[m - 1] + across[m]));
    }
    const auto [mean, sd] = mean_sd(typical);
    out.obtain_ms = mean;
    out.obtain_sd_ms = sd;
    out.obtain_p50_ms = percentile(typical, 0.50);
    out.obtain_p99_ms = percentile(typical, 0.99);
    out.obtain_samples = typical.size();
    const double n = double(std::max<std::uint64_t>(grants_, 1));
    out.inter_msgs_per_cs = double(inter_frames_) / n;
    out.inter_bytes_per_cs = double(inter_bytes_) / n;
    std::vector<double> lag = lag_;
    out.counts = {
        {"transport.datagrams_per_cs", double(datagrams_) / n},
        {"transport.acks_per_cs", double(acks_) / n},
        {"transport.retransmits_per_cs", double(retransmits_) / n},
        {"transport.node_cpu_us_per_cs", double(node_cpu_ns_) / 1e3 / n},
        {"transport.client_cpu_us_per_cs", double(client_cpu_ns_) / 1e3 / n},
        {"transport.generator_lag_p99_ms", percentile(lag, 0.99)},
        {"transport.send_errors", double(send_errors_)},
        {"transport.client_resends", double(resends_)},
    };
    // No simulator, no in-process layer spans: every simulated layer is
    // absent here by construction.
    out.unreached = {"sim.events_per_cs", "sim.self_ns_per_event",
                     "sim.queue_peak", "net.msgs_per_cs", "net.bytes_per_cs",
                     "net.send_ns_per_msg", "net.retransmits_per_cs",
                     "net.drops_per_cs", "net.setup_s", "mutex.setup_s",
                     "service.setup_s", "mutex.handler_ns_per_cs",
                     "core.inter_acquisitions_per_cs",
                     "core.coordinator_ns_per_cs", "service.batched_share",
                     "service.batch_bytes_saved_per_cs",
                     "service.session_ns_per_cs",
                     "service.lease_renewals_per_cs", "service.revocations",
                     "fault.token_losses", "fault.regenerations",
                     "fault.false_alarms", "fault.recovery_ms",
                     "workload.app_ns_per_cs"};
    const double total = double(std::max<std::int64_t>(
        node_cpu_ns_ + client_cpu_ns_, 1));
    out.note =
        std::to_string(int(100.0 * double(node_cpu_ns_) / total + 0.5)) +
        "% grid threads, " +
        std::to_string(int(100.0 * double(client_cpu_ns_) / total + 0.5)) +
        "% client thread (process CPU; no spans on this workload); " +
        std::to_string(gaps_) + " host gaps, " + std::to_string(gapped_) +
        " samples dropped for overlapping one" +
        (watch_fifo_ ? "" : " (gap detector without real-time priority)");
    return out;
  }

 private:
  PassSample run_pass(const std::vector<OpenLoopArrival>& trace,
                      bool record_traced, bool keep) {
    PassSample s;
    s.traced = record_traced;
    const std::int64_t p0 = process_cpu_ns();
    Grid grid(grid_);
    LockClient control(grid.addrs(), grid_.client_protocol());
    for (NodeId i = 0; i < grid_.node_count(); ++i) {
      if (!control.start(i, kControlTimeoutMs)) {
        fail("lockd node " + std::to_string(i) + " did not start");
        return s;
      }
    }
    const std::int64_t p1 = process_cpu_ns();
    s.setup_ns = p1 - p0;

    const std::int64_t main0 = thread_cpu_ns();
    const std::int64_t w0 = wall_ns();
    GenResult g;
    GapWatch watch;
    std::thread client([&] {
      Generator gen(trace, grid.addrs(), grid_.client_protocol(),
                    grid_.locks, hold_ns_);
      g = gen.run();
    });
    client.join();
    watch.stop();
    s.wall_ns = wall_ns() - w0;
    const std::int64_t p2 = process_cpu_ns();
    const std::int64_t main_cpu = thread_cpu_ns() - main0;
    s.cpu_ns = p2 - p1 - watch.cpu_ns();
    // The pass's reference is the load generator's own CPU, scaled to 500
    // requests (about 20 ms): benchmark code doing the same UDP sends and
    // receives for every request, on the same CPU at the same time as the
    // grid, so it tracks how fast the host runs the kernel's UDP path
    // during this pass. Reference loops timed around the pass did not.
    if (!trace.empty())
      s.ref_during_ns = std::int64_t(double(g.cpu_ns) * kRefRequests /
                                     double(trace.size()));

    NodeStats total;
    bool stats_ok = true;
    for (NodeId i = 0; i < grid_.node_count(); ++i) {
      const auto st = control.stats(i, kControlTimeoutMs);
      if (!st) {
        stats_ok = false;
        break;
      }
      total += *st;
    }
    grid.stop();

    s.attempted = trace.size();
    s.completed = g.grants;
    check(!g.timed_out, "lockd: the trace did not drain in time");
    check(g.fence_violations == 0, "lockd: fence tokens did not increase");
    check(g.exclusion_violations == 0, "lockd: exclusion violated");
    check(g.decode_errors == 0, "lockd: undecodable reply");
    check(stats_ok, "lockd: a node did not answer kStats");
    check(total.arrivals == total.grants + total.sheds + total.deadline_misses,
          "lockd: accounting closure broken: arrivals != grants + sheds + "
          "deadline misses");
    check(total.arrivals == trace.size() && total.grants == g.grants,
          "lockd: server counters disagree with the client");
    if (!keep) return s;

    // A request whose wait overlaps a host gap measured the host, not the
    // program, in this pass; its other passes stand for it.
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (std::isnan(g.obtain_ms[i])) continue;
      const std::int64_t due = g.start_ns + trace[i].at.count_ns();
      if (watch.overlaps(due, due + std::int64_t(g.obtain_ms[i] * 1e6))) {
        g.obtain_ms[i] = std::nan("");
        ++gapped_;
      }
    }
    gaps_ += watch.gaps().size();
    watch_fifo_ = watch_fifo_ && watch.fifo();
    obtain_.push_back(std::move(g.obtain_ms));
    lag_.insert(lag_.end(), g.lag_ms.begin(), g.lag_ms.end());
    grants_ += g.grants;
    client_cpu_ns_ += g.cpu_ns;
    node_cpu_ns_ += std::max<std::int64_t>(0, s.cpu_ns - g.cpu_ns - main_cpu);
    send_errors_ += g.send_errors;
    resends_ += g.resends;
    for (NodeId i = 0; i < grid_.node_count(); ++i) {
      const UdpTransport& tp = grid.transport(i);
      datagrams_ += tp.counters().datagrams_sent;
      acks_ += tp.counters().acks_sent;
      send_errors_ += tp.counters().send_errors;
      retransmits_ += tp.arq_send_counters().retransmitted;
      inter_frames_ += grid.wire(i).inter_frames;
      inter_bytes_ += grid.wire(i).inter_bytes;
    }
    return s;
  }

  static constexpr double kRefRequests = 500.0;

  GridConfig grid_;
  std::int64_t hold_ns_ = 0;
  std::vector<OpenLoopArrival> trace_;
  /// Per pass, per request of trace_: obtaining time in ms.
  std::vector<std::vector<double>> obtain_;
  /// Host gaps seen, samples dropped for overlapping one, and whether the
  /// detector always ran with real-time priority.
  std::uint64_t gaps_ = 0;
  std::uint64_t gapped_ = 0;
  bool watch_fifo_ = true;
  std::vector<double> lag_;
  std::uint64_t grants_ = 0;
  std::uint64_t datagrams_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t send_errors_ = 0;
  std::uint64_t resends_ = 0;
  std::uint64_t inter_frames_ = 0;
  std::uint64_t inter_bytes_ = 0;
  std::int64_t node_cpu_ns_ = 0;
  std::int64_t client_cpu_ns_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_lockd_loopback(const Options& o) {
  return std::make_unique<LockdLoopback>(o);
}

}  // namespace perfbench
