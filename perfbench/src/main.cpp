// perfbench: measures one workload and prints one raw record.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--spans-out <path>] [--rate <1/s>] [--window-s <s>]
//
// --rate and --window-s replace a service workload's arrival rate and
// window, to check that its load sits below saturation (README.md).
//
// The run: an untimed warm-up (which also computes the reference results
// every pass is checked against), then timed passes until --seconds have
// elapsed. Each pass builds a fresh world and runs it; the benchmark's
// reference loop is timed just before and just after each pass so the
// reduction (run.py) can divide host drift out. With --trace 1 the passes
// alternate untraced and traced, so the traced run carries its own
// overhead figure. The last stdout line is `PERFBENCH_RAW {json}`; run.py
// reduces it to the benchmark's metrics.
#include <malloc.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "host.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

void usage() {
  std::cerr << "usage: perfbench --workload "
               "<paper_grid|service_k64|service_lossy|lockd_loopback> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--spans-out <path>] [--rate <1/s>] [--window-s <s>]\n";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // glibc adapts its mmap and trim thresholds as large blocks are freed;
  // when that happens depends on the seed's allocation history and moved
  // peak RSS by up to 15 % between seeds of one workload. Fixing both at
  // glibc's defaults makes peak RSS a property of the program's
  // allocations alone.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  mallopt(M_TOP_PAD, 0);
  Options o;
  std::string spans_out;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
      have_trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--spans-out") {
      spans_out = value();
    } else if (a == "--rate") {
      o.rate = std::strtod(value().c_str(), nullptr);
    } else if (a == "--window-s") {
      o.window_s = std::strtod(value().c_str(), nullptr);
    } else {
      usage();
      return 2;
    }
  }
  const bool service = o.workload == "service_k64" ||
                       o.workload == "service_lossy";
  if (o.workload.empty() || !have_trace || !(o.seconds > 0.0) ||
      ((o.rate > 0 || o.window_s > 0) && !service)) {
    usage();
    return 2;
  }

  std::unique_ptr<Workload> w;
  if (o.workload == "paper_grid") {
    w = make_paper_grid(o);
  } else if (o.workload == "service_k64") {
    w = make_service(o, false);
  } else if (o.workload == "service_lossy") {
    w = make_service(o, true);
  } else if (o.workload == "lockd_loopback") {
    w = make_lockd_loopback(o);
  } else {
    usage();
    return 2;
  }

  const CpuTicks ticks0 = read_cpu_ticks();
  const double load0 = load_average();
  const double parallelism = spin_probe(4);
  // Everything from here on — the workload's threads included — shares
  // one CPU: how many physical CPUs a shared host lends this guest varies
  // from minute to minute, and a loopback grid's latency tracks it through
  // every cross-CPU wakeup; on one CPU each wakeup is a local switch.
  cpu_set_t one;
  CPU_ZERO(&one);
  const int cpu = sched_getcpu();
  CPU_SET(cpu < 0 ? 0 : cpu, &one);
  const bool pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
  ReferenceLoop ref;
  (void)ref.run_ns();

  w->warm_up();

  Tracer tracer;
  std::vector<PassSample> passes;
  const std::size_t min_passes = o.trace ? 6 : 5;
  const std::int64_t deadline =
      wall_ns() + std::int64_t(o.seconds * 1e9);
  while (w->failures().empty()) {
    const bool traced = o.trace && passes.size() % 2 == 1;
    const std::int64_t before = ref.run_ns();
    tracer.reset();
    PassSample s = w->pass(traced ? &tracer : nullptr);
    s.ref_before_ns = before;
    s.ref_after_ns = ref.run_ns();
    if (traced)
      for (int l = 0; l < kLayerCount; ++l)
        s.self_ns[l] = tracer.self_ns(Layer(l));
    s.spans_net = tracer.count(Layer::kNet);
    passes.push_back(s);
    if (passes.size() >= min_passes && wall_ns() >= deadline) break;
  }
  const CpuTicks ticks1 = read_cpu_ticks();
  const Summary sum = w->summary(passes);
  if (o.trace && !spans_out.empty()) tracer.write(spans_out);

  std::ostringstream js;
  js << "{\"workload\":" << quote(o.workload) << ",\"seed\":" << o.seed
     << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"smoke\":" << (o.smoke ? "true" : "false");
  js << ",\"failures\":[";
  for (std::size_t i = 0; i < w->failures().size(); ++i)
    js << (i ? "," : "") << quote(w->failures()[i]);
  js << "],\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassSample& p = passes[i];
    js << (i ? "," : "") << "{\"setup_ns\":" << p.setup_ns
       << ",\"cpu_ns\":" << p.cpu_ns << ",\"wall_ns\":" << p.wall_ns
       << ",\"attempted\":" << p.attempted
       << ",\"completed\":" << p.completed
       << ",\"traced\":" << (p.traced ? "true" : "false")
       << ",\"net_setup_ns\":" << p.net_setup_ns
       << ",\"mutex_setup_ns\":" << p.mutex_setup_ns
       << ",\"service_setup_ns\":" << p.service_setup_ns
       << ",\"ref_during_ns\":" << p.ref_during_ns
       << ",\"ref_before_ns\":" << p.ref_before_ns
       << ",\"ref_after_ns\":" << p.ref_after_ns
       << ",\"net_sends\":" << p.spans_net << ",\"self_ns\":{";
    for (int l = 0; l < kLayerCount; ++l)
      js << (l ? "," : "") << quote(layer_name(Layer(l))) << ":"
         << p.self_ns[l];
    js << "}}";
  }
  js << "],\"summary\":{\"obtain_ms\":" << num(sum.obtain_ms)
     << ",\"obtain_sd_ms\":" << num(sum.obtain_sd_ms)
     << ",\"obtain_p50_ms\":" << num(sum.obtain_p50_ms)
     << ",\"obtain_p99_ms\":" << num(sum.obtain_p99_ms)
     << ",\"obtain_samples\":" << sum.obtain_samples
     << ",\"inter_msgs_per_cs\":" << num(sum.inter_msgs_per_cs)
     << ",\"inter_bytes_per_cs\":" << num(sum.inter_bytes_per_cs)
     << ",\"note\":" << quote(sum.note) << ",\"counts\":{";
  for (std::size_t i = 0; i < sum.counts.size(); ++i)
    js << (i ? "," : "") << quote(sum.counts[i].first) << ":"
       << num(sum.counts[i].second);
  js << "},\"unreached\":[";
  for (std::size_t i = 0; i < sum.unreached.size(); ++i)
    js << (i ? "," : "") << quote(sum.unreached[i]);
  const std::uint64_t dt = ticks1.total - ticks0.total;
  js << "]},\"host\":{\"world_peak_kb\":" << w->world_peak_kb()
     << ",\"world_peak_reset\":"
     << (w->world_peak_reset() ? "true" : "false")
     << ",\"process_peak_kb\":" << peak_rss_kb()
     << ",\"steal_ticks\":" << (ticks1.steal - ticks0.steal)
     << ",\"total_ticks\":" << dt
     << ",\"steal_share\":"
     << num(dt == 0 ? 0.0 : double(ticks1.steal - ticks0.steal) / double(dt))
     << ",\"load_start\":" << num(load0) << ",\"load_end\":"
     << num(load_average()) << ",\"parallelism\":" << num(parallelism)
     << ",\"cpus\":" << std::thread::hardware_concurrency()
     << ",\"pinned\":" << (pinned ? "true" : "false")
     << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
     << ",\"compiler\":" << quote(__VERSION__) << "}}";
  std::cout << "PERFBENCH_RAW " << js.str() << std::endl;
  return w->failures().empty() ? 0 : 1;
}
