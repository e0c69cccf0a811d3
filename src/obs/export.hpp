// Machine-readable exporters for the observability layer
// (docs/observability.md documents the formats):
//
//   chrome_trace_json — Chrome trace-event JSON (open in Perfetto or
//     chrome://tracing): policy events as instant events on per-tile
//     tracks, one process per run/scheme, plus per-core way/IPC counters
//     and per-MCU queue counters from the timeline.
//   timeline_csv — long-format epoch time series with an `entity` column
//     (core / mcu / chip) so one file carries all three row types.
//
// Exporters build strings so tests can validate output without touching
// the filesystem; write_text_file() is the thin file sink used by tools.
#pragma once

#include <string>
#include <string_view>

#include "obs/observer.hpp"

namespace delta::obs {

/// JSON string escaping (control characters, quotes, backslash).
std::string json_escape(std::string_view s);

/// Finite-checked JSON number formatting (%.6g; NaN/Inf become 0).
std::string json_num(double x);

/// printf-style append to `out`.  Never truncates: output longer than the
/// stack buffer is formatted again straight into `out` at its full length.
void appendf(std::string& out, const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

/// Header row of timeline_csv(), without the trailing newline.
std::string timeline_csv_header();

std::string timeline_csv(const Observer& obs);

std::string chrome_trace_json(const Observer& obs);

/// Appends the observer's trace entries (process/thread metadata, policy
/// instants, timeline counters) to `out`, each terminated by ",\n".  The
/// building block chrome_trace_json() and the profiler's merged exporter
/// (obs/prof/export.hpp) share, so phase spans and policy events can land in
/// one trace file.
void append_chrome_trace_events(std::string& out, const Observer& obs);

/// Writes `content` to `path`; returns false (and leaves errno set) on
/// failure.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace delta::obs
