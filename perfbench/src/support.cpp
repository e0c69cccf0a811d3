#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <thread>

#include "common/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double wall_now() { return static_cast<double>(now_ns()) * 1e-9; }

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double lpt_makespan(std::vector<double> jobs, unsigned threads) {
  std::sort(jobs.begin(), jobs.end(), std::greater<>());
  std::priority_queue<double, std::vector<double>, std::greater<>> loads;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) loads.push(0.0);
  for (double j : jobs) {
    const double least = loads.top();
    loads.pop();
    loads.push(least + j);
  }
  double makespan = 0.0;
  while (!loads.empty()) {
    makespan = std::max(makespan, loads.top());
    loads.pop();
  }
  return makespan;
}

namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(le, sizeof le);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::string digest(const delta::sim::MixResult& r) {
  Fnv1a h;
  h.str(r.mix);
  h.str(r.scheme);
  h.u64(r.apps.size());
  for (const delta::sim::AppResult& a : r.apps) {
    h.str(a.app);
    h.u64(static_cast<std::uint64_t>(a.core));
    for (double x : {a.ipc, a.cpi, a.mpki, a.miss_rate, a.avg_latency, a.avg_hops,
                     a.avg_ways})
      h.f64(x);
    h.u64(a.instructions);
    h.u64(a.llc_accesses);
    h.u64(a.llc_misses);
  }
  h.f64(r.geomean_ipc);
  for (int t = 0; t < static_cast<int>(delta::noc::MsgType::kCount); ++t)
    h.u64(r.traffic.total(static_cast<delta::noc::MsgType>(t)));
  const delta::sim::ControlBreakdown& c = r.control;
  for (std::uint64_t x : {c.challenge, c.feedback, c.invalidation, c.handover,
                          c.central, c.market})
    h.u64(x);
  h.u64(r.invalidated_lines);
  h.u64(r.measured_epochs);
  return h.hex();
}

std::string digest(const delta::sim::MtResult& r) {
  Fnv1a h;
  h.str(r.app);
  h.str(r.scheme);
  for (double x : {r.roi_cycles, r.mean_ipc, r.miss_rate, r.mean_hops}) h.f64(x);
  for (std::uint64_t x : {r.private_pages, r.shared_pages, r.reclassifications,
                          r.page_invalidation_lines})
    h.u64(x);
  return h.hex();
}

std::map<std::string, std::string> load_expected(const std::string& path,
                                                 std::uint64_t seed) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t s = 0;
    std::string job, hex;
    if (fields >> s >> job >> hex && s == seed) out[job] = hex;
  }
  return out;
}

void Ledger::check(const std::string& job, const std::string& got,
                   const std::string& reference) {
  ++attempted_;
  bool ok = true;
  if (!reference.empty() && got != reference) {
    std::fprintf(stderr, "perfbench: FAILED %s: digest %s != in-run reference %s\n",
                 job.c_str(), got.c_str(), reference.c_str());
    ok = false;
  }
  if (const auto it = expected_.find(job); it != expected_.end()) {
    ++recorded_checks_;
    if (got != it->second) {
      std::fprintf(stderr, "perfbench: FAILED %s: digest %s != recorded %s\n",
                   job.c_str(), got.c_str(), it->second.c_str());
      ok = false;
    }
  }
  if (!ok) ++failed_;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
      return "unknown";
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Provenance collect_provenance(std::uint64_t seed) {
  Provenance p;
  p.hardware_threads = std::thread::hardware_concurrency();
  p.cpu_model = cpu_model();
  p.compiler = compiler();
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.simd_backend = delta::simd::backend_name();
  p.seed = seed;
  return p;
}

std::string provenance_json(const Provenance& p) {
  std::string threads = "{";
  for (const auto& [name, n] : p.threads) {
    if (threads.size() > 1) threads += ", ";
    threads += json_string(name) + ": " + std::to_string(n);
  }
  threads += "}";
  return "{\"hardware_threads\": " + std::to_string(p.hardware_threads) +
         ", \"cpu_model\": " + json_string(p.cpu_model) +
         ", \"compiler\": " + json_string(p.compiler) +
         ", \"build_type\": " + json_string(p.build_type) +
         ", \"simd_backend\": " + json_string(p.simd_backend) +
         ", \"seed\": " + std::to_string(p.seed) +
         ", \"threads\": " + threads + "}";
}

}  // namespace perfbench
