// Self-profiling subsystem (src/obs/prof): level gating, span/site
// collection, the metrics registry's determinism contract, exporter
// formats, and — the load-bearing property — byte-identical simulation
// results with profiling off vs full at any thread count.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hpp"
#include "json_check.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/prof/export.hpp"
#include "obs/prof/frontend.hpp"
#include "obs/prof/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"

namespace delta {
namespace {

using obs::prof::Phase;
using obs::prof::ProfLevel;
using obs::prof::Profiler;
using obs::prof::Site;

/// The profiler and registry are process-wide; every test starts from a
/// clean span store and level kOff (registered metric names persist — the
/// registry never removes metrics — which the tests account for).
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::prof::set_level(ProfLevel::kOff);
    Profiler::instance().clear();
  }
  void TearDown() override {
    obs::prof::set_level(ProfLevel::kOff);
    Profiler::instance().clear();
  }
};

TEST_F(ProfTest, ParseLevelRoundTrip) {
  for (const ProfLevel lvl :
       {ProfLevel::kOff, ProfLevel::kPhases, ProfLevel::kFull}) {
    ProfLevel parsed = ProfLevel::kOff;
    ASSERT_TRUE(obs::prof::parse_prof_level(obs::prof::to_string(lvl), &parsed));
    EXPECT_EQ(parsed, lvl);
  }
  ProfLevel lvl;
  EXPECT_FALSE(obs::prof::parse_prof_level("verbose", &lvl));
  EXPECT_FALSE(obs::prof::parse_prof_level("", &lvl));
}

TEST_F(ProfTest, LevelOffCollectsNothing) {
  {
    const obs::prof::ScopedSpan span(Phase::kEpoch, 1);
    const obs::prof::ScopedSite site(Site::kAccessBatch);
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_TRUE(snap.spans.empty());
  for (const obs::prof::SiteTotal& s : snap.sites) EXPECT_EQ(s.calls, 0u);
}

TEST_F(ProfTest, PhasesLevelGatesSitesButNotSpans) {
  obs::prof::set_level(ProfLevel::kPhases);
  {
    const obs::prof::ScopedSpan span(Phase::kEpoch, 7);
    const obs::prof::ScopedSite site(Site::kAccessBatch);  // kFull-gated.
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].phase, Phase::kEpoch);
  EXPECT_EQ(snap.spans[0].arg, 7u);
  EXPECT_EQ(snap.sites[static_cast<std::size_t>(Site::kAccessBatch)].calls, 0u);
}

TEST_F(ProfTest, StopEndsSpanEarlyAndIsIdempotent) {
  obs::prof::set_level(ProfLevel::kPhases);
  {
    obs::prof::ScopedSpan span(Phase::kPolicy, 3);
    span.stop();
    span.stop();  // Second stop and the destructor must not re-record.
  }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.spans.size(), 1u);
}

TEST_F(ProfTest, SpansFromManyThreadsMergeSeqSorted) {
  obs::prof::set_level(ProfLevel::kPhases);
  constexpr int kThreads = 4, kSpansEach = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i)
        obs::prof::ScopedSpan span(Phase::kSweepJob, static_cast<std::uint64_t>(i));
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  ASSERT_EQ(snap.spans.size(), static_cast<std::size_t>(kThreads * kSpansEach));
  for (std::size_t i = 1; i < snap.spans.size(); ++i)
    EXPECT_LT(snap.spans[i - 1].seq, snap.spans[i].seq);
  // Thread slots are stable ids: every span carries one of kThreads tids.
  std::vector<bool> seen(64, false);
  for (const obs::prof::Span& s : snap.spans) seen[s.tid % 64] = true;
}

TEST_F(ProfTest, SiteAggregationAccumulates) {
  obs::prof::set_level(ProfLevel::kFull);
  for (int i = 0; i < 10; ++i)
    obs::prof::ScopedSite site(Site::kStageCore);
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  const obs::prof::SiteTotal& s =
      snap.sites[static_cast<std::size_t>(Site::kStageCore)];
  EXPECT_EQ(s.calls, 10u);
  EXPECT_EQ(s.hist.total(), 10u);
  EXPECT_GE(s.ns, s.hist.sum() == 0 ? 0u : 1u);
}

TEST_F(ProfTest, AccessBatchSiteCountsEveryCallAndTimesOneInEight) {
  ASSERT_EQ(obs::prof::kAccessBatchTimedEvery, 8u);
  obs::prof::set_level(ProfLevel::kFull);
  for (int i = 0; i < 16; ++i)
    obs::prof::ScopedSite site(Site::kAccessBatch);
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  const obs::prof::SiteTotal& s =
      snap.sites[static_cast<std::size_t>(Site::kAccessBatch)];
  EXPECT_EQ(s.calls, 16u);
  EXPECT_EQ(s.hist.total(), 2u);
  EXPECT_GE(s.ns, s.hist.sum());  // Two timed calls scaled up to sixteen.
}

TEST_F(ProfTest, PhaseNsSumsOnlyThatPhase) {
  obs::prof::set_level(ProfLevel::kPhases);
  { obs::prof::ScopedSpan a(Phase::kStage, 0); }
  { obs::prof::ScopedSpan b(Phase::kApply, 0); }
  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  EXPECT_EQ(snap.phase_ns(Phase::kStage) + snap.phase_ns(Phase::kApply),
            snap.spans[0].dur_ns + snap.spans[1].dur_ns);
  EXPECT_EQ(snap.phase_ns(Phase::kReduce), 0u);
}

// ------------------------------------------------------------------ registry

TEST_F(ProfTest, RegistryHandlesAreStableAndSharedByName) {
  auto& reg = obs::prof::MetricsRegistry::global();
  obs::prof::Counter& a = reg.counter("test_prof_counter", "help a");
  obs::prof::Counter& b = reg.counter("test_prof_counter", "ignored on re-reg");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7u);

  obs::prof::Gauge& g = reg.gauge("test_prof_gauge", "g");
  g.set(2.5);
  obs::prof::HistogramMetric& h = reg.histogram("test_prof_hist", "h");
  h.observe(1000, 2);

  const obs::prof::RegistrySnapshot snap = reg.snapshot();
  const obs::prof::MetricSample* cs = snap.find("test_prof_counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_DOUBLE_EQ(cs->value, 7.0);
  const obs::prof::MetricSample* gs = snap.find("test_prof_gauge");
  ASSERT_NE(gs, nullptr);
  EXPECT_DOUBLE_EQ(gs->value, 2.5);
  const obs::prof::MetricSample* hs = snap.find("test_prof_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->hist.total(), 2u);

  // Export order is name order — deterministic however threads registered.
  for (std::size_t i = 1; i < snap.metrics.size(); ++i)
    EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);

  reg.reset_values();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().total(), 0u);
}

TEST_F(ProfTest, SnapshotIsIsolatedFromLaterUpdates) {
  auto& reg = obs::prof::MetricsRegistry::global();
  obs::prof::Counter& c = reg.counter("test_prof_isolation", "c");
  reg.reset_values();
  c.add(5);
  const obs::prof::RegistrySnapshot snap = reg.snapshot();
  c.add(100);
  ASSERT_NE(snap.find("test_prof_isolation"), nullptr);
  EXPECT_DOUBLE_EQ(snap.find("test_prof_isolation")->value, 5.0);
}

// ----------------------------------------------------------------- exporters

TEST_F(ProfTest, PrometheusTextFormat) {
  auto& reg = obs::prof::MetricsRegistry::global();
  reg.counter("test_prof_prom_total", "a counter").add(42);
  reg.gauge("test_prof_prom_frac", "a gauge").set(0.25);
  reg.histogram("test_prof_prom_ns", "a histogram").observe(100, 3);
  const std::string text = obs::prof::prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("# HELP test_prof_prom_total a counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prof_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prof_prom_total 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prof_prom_frac gauge"), std::string::npos);
  EXPECT_NE(text.find("test_prof_prom_frac 0.25"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prof_prom_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("test_prof_prom_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("test_prof_prom_ns_sum 300"), std::string::npos);
  EXPECT_NE(text.find("test_prof_prom_ns_count 3"), std::string::npos);
  // reset_values keeps the shared registry predictable for later tests.
  reg.reset_values();
}

TEST_F(ProfTest, MetricsJsonIsValidJson) {
  obs::prof::set_level(ProfLevel::kFull);
  { obs::prof::ScopedSpan span(Phase::kEpoch, 0); }
  { obs::prof::ScopedSite site(Site::kApplyBank); }
  const std::string json = obs::prof::metrics_json(
      obs::prof::MetricsRegistry::global().snapshot(),
      Profiler::instance().snapshot());
  std::string why;
  EXPECT_TRUE(test::is_valid_json(json, &why)) << why;
  EXPECT_NE(json.find("\"schema\": \"delta-prof-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"sites\""), std::string::npos);
}

TEST_F(ProfTest, TraceJsonMergesSpansAndPolicyEvents) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  cfg.intra_jobs = 2;
  obs::prof::set_level(ProfLevel::kPhases);
  obs::Observer observer(obs::ObsLevel::kFull);
  sim::run_mix(cfg, sim::mix_for_config(cfg, "w2"), sim::SchemeKind::kDelta, {},
               &observer);
  obs::prof::set_level(ProfLevel::kOff);

  const obs::prof::ProfSnapshot snap = Profiler::instance().snapshot();
  const std::string trace = obs::chrome_trace_json(&observer, &snap);
  std::string why;
  ASSERT_TRUE(test::is_valid_json(trace, &why)) << why;
  // One timeline: prof spans ("X" on the dedicated prof pid) next to the
  // policy instants ("i" on the run pids).
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"stage\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"apply\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"reduce\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"barrier\""), std::string::npos);

  // otherData lists the span counts before the observer's event counts.
  EXPECT_NE(trace.find("\"otherData\":{\"prof_spans\":"), std::string::npos);
  EXPECT_NE(trace.find(",\"dropped_events\":"), std::string::npos);

  // Without an observer the trace still stands alone as valid JSON.
  const std::string solo = obs::chrome_trace_json(nullptr, &snap);
  EXPECT_TRUE(test::is_valid_json(solo, &why)) << why;
  EXPECT_EQ(solo.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(solo.find("dropped_events"), std::string::npos);
}

// -------------------------------------------------------- engine integration

TEST_F(ProfTest, DerivedEngineMetricsAreSane) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  cfg.intra_jobs = 4;
  obs::prof::MetricsRegistry::global().reset_values();
  obs::prof::set_level(ProfLevel::kFull);
  sim::run_mix(cfg, sim::mix_for_config(cfg, "w2"), sim::SchemeKind::kDelta);
  obs::prof::set_level(ProfLevel::kOff);

  const obs::prof::RegistrySnapshot reg =
      obs::prof::MetricsRegistry::global().snapshot();
  const obs::prof::MetricSample* frac =
      reg.find("delta_intra_barrier_wait_fraction");
  ASSERT_NE(frac, nullptr);
  EXPECT_GE(frac->value, 0.0);
  EXPECT_LE(frac->value, 1.0);
  const obs::prof::MetricSample* imb =
      reg.find("delta_intra_worker_imbalance_ratio");
  ASSERT_NE(imb, nullptr);
  EXPECT_GE(imb->value, 1.0);  // max/mean busy is >= 1 by construction.
  const obs::prof::MetricSample* merge =
      reg.find("delta_intra_merge_serial_fraction");
  ASSERT_NE(merge, nullptr);
  EXPECT_GE(merge->value, 0.0);
  EXPECT_LE(merge->value, 1.0);
  const obs::prof::MetricSample* epochs = reg.find("delta_intra_epochs_total");
  ASSERT_NE(epochs, nullptr);
  EXPECT_DOUBLE_EQ(epochs->value, 15.0);  // 5 warmup + 10 measured.
  const obs::prof::MetricSample* occ =
      reg.find("delta_intra_bank_buffer_occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_GT(occ->hist.total(), 0u);
}

TEST_F(ProfTest, ResultsAreByteIdenticalWithProfilingOnOrOff) {
  sim::MachineConfig cfg = sim::config16();
  cfg.warmup_epochs = 5;
  cfg.measure_epochs = 10;
  const workload::Mix mix = sim::mix_for_config(cfg, "w2");
  const auto summary = [&](int intra_jobs, ProfLevel lvl) {
    sim::MachineConfig c = cfg;
    c.intra_jobs = intra_jobs;
    obs::prof::set_level(lvl);
    const sim::MixResult r = sim::run_mix(c, mix, sim::SchemeKind::kDelta);
    obs::prof::set_level(ProfLevel::kOff);
    return sim::json_summary({&r, 1});
  };
  const std::string baseline = summary(1, ProfLevel::kOff);
  EXPECT_EQ(baseline, summary(1, ProfLevel::kFull)) << "serial engine diverged";
  EXPECT_EQ(baseline, summary(2, ProfLevel::kOff)) << "intra engine diverged";
  EXPECT_EQ(baseline, summary(2, ProfLevel::kFull))
      << "profiling changed intra-engine results";
  EXPECT_EQ(baseline, summary(4, ProfLevel::kFull))
      << "profiling changed 4-way intra results";
}

// ---------------------------------------------------------------- front end

// An ArgParser over `flags`, given after a program name.
ArgParser parse_flags(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "prog");
  std::vector<char*> argv;
  for (auto& f : flags) argv.push_back(f.data());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ProfFrontEnd, LevelTable) {
  struct Case {
    std::vector<std::string> flags;
    ProfLevel want;
  };
  const Case cases[] = {
      {{}, ProfLevel::kOff},
      {{"--prof-out", "p.json"}, ProfLevel::kFull},
      {{"--metrics-out", "m.json"}, ProfLevel::kPhases},
      {{"--metrics-out", "m.prom", "--prof-out", "p.json"}, ProfLevel::kFull},
      {{"--prof-level", "full"}, ProfLevel::kFull},
      {{"--prof-level", "off", "--prof-out", "p.json"}, ProfLevel::kOff},
      {{"--prof-level", "phases", "--prof-out", "p.json"}, ProfLevel::kPhases},
      {{"--prof-level=full", "--metrics-out", "m.json"}, ProfLevel::kFull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(obs::prof::resolve_prof_level(parse_flags(c.flags)), c.want)
        << ::testing::PrintToString(c.flags);
  }
  // An output flag without a file name would arm the profiler and then write
  // nowhere.
  const std::vector<std::string> no_file[] = {
      {"--prof-out"},
      {"--prof-out", "--prof-level", "off"},
      {"--metrics-out="},
      {"--metrics-out", "--json"},
  };
  for (const auto& flags : no_file) {
    EXPECT_EXIT(obs::prof::resolve_prof_level(parse_flags(flags)),
                ::testing::ExitedWithCode(2), "expects a file name")
        << ::testing::PrintToString(flags);
  }
}

TEST(ProfFrontEnd, MetricsFormatFollowsTheSuffix) {
  struct Case {
    const char* path;
    bool prometheus;
  };
  const Case cases[] = {
      {"m.prom", true},       {"out/m.txt", true},  {"m.json", false},
      {"m", false},           {"prom", false},      {"m.prom.json", false},
      {"m.txt.gz", false},    {".txt", true},
  };
  for (const Case& c : cases)
    EXPECT_EQ(obs::prof::is_prometheus_path(c.path), c.prometheus) << c.path;
}

TEST(ProfFrontEnd, ObsLevelTable) {
  struct Case {
    std::vector<std::string> flags;
    std::optional<obs::ObsLevel> want;
  };
  const Case cases[] = {
      {{}, std::nullopt},
      {{"--metrics-out", "m.json"}, std::nullopt},
      {{"--json"}, obs::ObsLevel::kSummary},
      {{"--timeline-csv", "t.csv", "--json"}, obs::ObsLevel::kTimeline},
      {{"--trace-out", "t.json"}, obs::ObsLevel::kFull},
      {{"--prof-out", "p.json"}, obs::ObsLevel::kFull},
      {{"--obs-level", "off", "--trace-out", "t.json"}, obs::ObsLevel::kOff},
      {{"--obs-level", "timeline"}, obs::ObsLevel::kTimeline},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(obs::prof::resolve_obs_level(parse_flags(c.flags)), c.want)
        << ::testing::PrintToString(c.flags);
  }
}

TEST(ProfFrontEndDeathTest, BadLevelExits2) {
  EXPECT_EXIT(obs::prof::resolve_prof_level(parse_flags({"--prof-level", "verbose"})),
              ::testing::ExitedWithCode(2), "unknown --prof-level 'verbose'");
  EXPECT_EXIT(obs::prof::ProfSession(parse_flags({"--prof-level", "x"})),
              ::testing::ExitedWithCode(2), "unknown --prof-level 'x'");
  EXPECT_EXIT(obs::prof::resolve_obs_level(parse_flags({"--obs-level", "x"})),
              ::testing::ExitedWithCode(2), "unknown --obs-level 'x'");
}

TEST_F(ProfTest, SessionWritesTheFormatTheSuffixNames) {
  obs::prof::MetricsRegistry::global()
      .counter("test_prof_session_total", "session write check")
      .add(1);
  const std::string dir = ::testing::TempDir();
  const auto first_line = [](const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
  };
  for (const char* name : {"session.prom", "session.txt", "session.json"}) {
    const std::string path = dir + name;
    const obs::prof::ProfSession session(parse_flags({"--metrics-out", path}));
    EXPECT_EQ(obs::prof::level(), ProfLevel::kPhases);
    ASSERT_TRUE(session.write_outputs()) << path;
    const std::string want = obs::prof::is_prometheus_path(path) ? "# HELP " : "{";
    EXPECT_EQ(first_line(path).substr(0, want.size()), want) << path;
    std::remove(path.c_str());
  }
  const obs::prof::ProfSession bad(
      parse_flags({"--metrics-out", dir + "no-such-dir/m.json"}));
  EXPECT_FALSE(bad.write_outputs());
  obs::prof::MetricsRegistry::global().reset_values();
}

TEST(AbortFlush, InstallIsIdempotent) {
  obs::prof::install_abort_flush();
  const auto first = std::signal(SIGABRT, SIG_DFL);
  std::signal(SIGABRT, first);
  obs::prof::install_abort_flush();  // Second call must be a no-op.
  const auto second = std::signal(SIGABRT, SIG_DFL);
  std::signal(SIGABRT, second);
  EXPECT_NE(first, SIG_DFL);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace delta
