// Metrics exporters for the self-profiling subsystem (formats documented in
// docs/observability.md; the profiler's Chrome trace is obs::chrome_trace_json
// with a snapshot):
//
//   prometheus_text — Prometheus text exposition of a registry snapshot
//     (counters, gauges, histograms with cumulative le buckets).
//   metrics_json — JSON dump: every registry metric plus the snapshot's
//     per-phase wall totals and site aggregates.
//
// Like obs/export.hpp, exporters build strings; write_text_file() is the
// file sink.
#pragma once

#include <string>

#include "obs/prof/metrics.hpp"
#include "obs/prof/prof.hpp"

namespace delta::obs::prof {

std::string prometheus_text(const RegistrySnapshot& reg);

std::string metrics_json(const RegistrySnapshot& reg, const ProfSnapshot& snap);

}  // namespace delta::obs::prof
