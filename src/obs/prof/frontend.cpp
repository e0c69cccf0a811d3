#include "obs/prof/frontend.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include "obs/export.hpp"
#include "obs/prof/export.hpp"
#include "obs/prof/metrics.hpp"

namespace delta::obs::prof {
namespace {

/// fflush is not strictly async-signal-safe; this is a best-effort drain on
/// a path that is already fatal.
void flush_then_reraise(int sig) {
  std::fflush(nullptr);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

ProfLevel resolve_prof_level(const ArgParser& args) {
  for (const char* out : {"prof-out", "metrics-out"}) {
    if (args.has(out) && args.get(out).empty()) {
      std::fprintf(stderr, "--%s expects a file name\n", out);
      std::exit(2);
    }
  }
  if (args.has("prof-level")) {
    ProfLevel lvl = ProfLevel::kOff;
    if (!parse_prof_level(args.get("prof-level"), &lvl)) {
      std::fprintf(stderr, "unknown --prof-level '%s' (off|phases|full)\n",
                   args.get("prof-level").c_str());
      std::exit(2);
    }
    return lvl;
  }
  if (args.has("prof-out")) return ProfLevel::kFull;
  if (args.has("metrics-out")) return ProfLevel::kPhases;
  return ProfLevel::kOff;
}

bool is_prometheus_path(std::string_view path) {
  return path.ends_with(".prom") || path.ends_with(".txt");
}

std::optional<ObsLevel> resolve_obs_level(const ArgParser& args) {
  if (args.has("obs-level")) {
    const std::string name = args.get("obs-level");
    for (const ObsLevel lvl :
         {ObsLevel::kOff, ObsLevel::kSummary, ObsLevel::kTimeline, ObsLevel::kFull})
      if (name == to_string(lvl)) return lvl;
    std::fprintf(stderr, "unknown --obs-level '%s' (off|summary|timeline|full)\n",
                 name.c_str());
    std::exit(2);
  }
  if (args.has("trace-out") || args.has("prof-out")) return ObsLevel::kFull;
  if (args.has("timeline-csv")) return ObsLevel::kTimeline;
  if (args.has("json")) return ObsLevel::kSummary;
  return std::nullopt;
}

void install_abort_flush() {
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_acq_rel)) return;
  std::signal(SIGABRT, &flush_then_reraise);
}

bool write_or_complain(const std::string& path, std::string_view content) {
  if (write_text_file(path, content)) return true;
  std::perror(("writing " + path).c_str());
  return false;
}

ProfSession::ProfSession(const ArgParser& args)
    : prof_out_(args.get("prof-out")), metrics_out_(args.get("metrics-out")) {
  const ProfLevel lvl = resolve_prof_level(args);
  init_clock();
  set_level(lvl);
  install_abort_flush();
}

bool ProfSession::write_outputs(const Observer* observer) const {
  bool ok = true;
  if (!prof_out_.empty()) {
    const ProfSnapshot snap = Profiler::instance().snapshot();
    ok &= write_or_complain(prof_out_, chrome_trace_json(observer, &snap));
  }
  if (!metrics_out_.empty()) {
    const RegistrySnapshot reg = MetricsRegistry::global().snapshot();
    ok &= write_or_complain(
        metrics_out_, is_prometheus_path(metrics_out_)
                          ? prometheus_text(reg)
                          : metrics_json(reg, Profiler::instance().snapshot()));
  }
  return ok;
}

}  // namespace delta::obs::prof
