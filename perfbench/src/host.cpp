#include "host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <ctime>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t wall_ns() { return clock_ns(CLOCK_MONOTONIC); }

ReferenceLoop::ReferenceLoop() : table_(1u << 19, 0) {
  for (std::uint64_t k = 1; k <= 16; ++k) {
    handlers_.emplace_back([this, k](std::uint64_t t, std::uint32_t id) {
      std::uint64_t h = (t ^ (std::uint64_t(id) << 20)) * (2 * k + 1);
      h ^= h >> 29;
      std::uint64_t& slot = table_[h & (table_.size() - 1)];
      slot += t;
      return t + 1 + ((h ^ slot) & 1023);
    });
  }
  heap_.reserve(4096);
}

std::int64_t ReferenceLoop::run_ns() {
  const std::int64_t t0 = thread_cpu_ns();
  std::uint64_t s = 42;
  heap_.clear();
  for (std::uint32_t i = 0; i < 4096; ++i)
    heap_.emplace_back(splitmix(s) & 0xFFFFF, i);
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  std::uint64_t acc = sink_;
  for (int step = 0; step < 150'000; ++step) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [t, id] = heap_.back();
    const std::uint64_t next = handlers_[id % handlers_.size()](t, id);
    acc += next;
    heap_.back() = Event{next, id};
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  sink_ = acc;
  return thread_cpu_ns() - t0;
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

namespace {

/// A "<field> <n> kB" line of /proc/self/status, or -1.
long status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string tag;
  while (in >> tag) {
    if (tag == field) {
      long kb = -1;
      in >> kb;
      return kb;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return -1;
}

}  // namespace

PeakRssProbe::PeakRssProbe() {
  std::ofstream clear("/proc/self/clear_refs");
  reset_ = static_cast<bool>(clear << "5" << std::flush);
  base_kb_ = status_kb("VmRSS:");
}

long PeakRssProbe::added_kb() const {
  return status_kb("VmHWM:") - base_kb_;
}

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string tag;
  CpuTicks t;
  if (!(in >> tag) || tag != "cpu") return t;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = -1.0;
  if (!(in >> one)) return -1.0;
  return one;
}

double spin_probe(int threads) {
  auto work = [] {
    std::uint64_t x = 1;
    for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1;
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  std::int64_t single = 0;
  for (int rep = 0; rep < 2; ++rep) {  // the first also warms the core up
    const std::int64_t s0 = wall_ns();
    sink += work();
    single = wall_ns() - s0;
  }
  std::vector<std::thread> pool;
  const std::int64_t p0 = wall_ns();
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] { sink += work(); });
  for (auto& th : pool) th.join();
  const std::int64_t parallel = wall_ns() - p0;
  if (parallel <= 0 || sink.load() == 0) return 0.0;
  return double(threads) * double(single) / double(parallel);
}

// ---------------------------------------------------------------------

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSim: return "sim";
    case Layer::kNet: return "net";
    case Layer::kMutex: return "mutex";
    case Layer::kCore: return "core";
    case Layer::kService: return "service";
    case Layer::kWorkload: return "workload";
    case Layer::kCount: break;
  }
  return "root";
}

Tracer::Tracer() {
  stack_.reserve(64);
  kept_.reserve(kKeptSpans);
}

void Tracer::open(Layer l) {
  stack_.push_back(Frame{l, wall_ns(), 0});
}

void Tracer::close() {
  const std::int64_t end = wall_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start;
  self_[std::size_t(f.layer)] += dur - f.child;
  ++count_[std::size_t(f.layer)];
  const Layer parent = stack_.empty() ? Layer::kCount : stack_.back().layer;
  if (!stack_.empty()) stack_.back().child += dur;
  if (kept_.size() < kKeptSpans)
    kept_.push_back(Span{f.start, dur, f.layer, parent});
}

void Tracer::reset() {
  for (auto& v : self_) v = 0;
  for (auto& v : count_) v = 0;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "start_ns\tdur_ns\tlayer\tparent\n";
  for (const Span& s : kept_)
    out << s.start_ns << '\t' << s.dur_ns << '\t' << layer_name(s.layer)
        << '\t' << layer_name(s.parent) << '\n';
}

}  // namespace perfbench
