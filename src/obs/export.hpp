// Machine-readable exporters for the observability layer
// (docs/observability.md documents the formats):
//
//   chrome_trace_json — Chrome trace-event JSON (open in Perfetto or
//     chrome://tracing), the one trace writer: policy events as instant
//     events on per-tile tracks, one process per run/scheme, plus per-core
//     way/IPC counters and per-MCU queue counters from the timeline; and,
//     when given a profiler snapshot, the engine's phase spans as duration
//     events on a dedicated "engine prof" process, so one timeline shows
//     what the policy did next to where the epoch time went.
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

namespace prof {
struct ProfSnapshot;
}  // namespace prof

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

/// Either argument may be null.  With only an observer this is the
/// `--trace-out` file; with a snapshot it is the `--prof-out` file, whose
/// spans sit under pid 1000 and whose otherData adds the span counts before
/// the observer's event counts.
std::string chrome_trace_json(const Observer* obs, const prof::ProfSnapshot* prof);

/// Writes `content` to `path`; returns false (and leaves errno set) on
/// failure.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace delta::obs
