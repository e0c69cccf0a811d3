#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <utility>

#include "obs/prof/prof.hpp"

namespace delta::obs {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  va_list again;
  va_copy(again, ap);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0 && static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n));
    // Writes n characters plus the NUL the string already keeps at size().
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt, again);
  }
  va_end(again);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

std::string timeline_csv_header() {
  return "entity,run,scheme,epoch,id,app,ipc,ways,accesses,misses,miss_rate,"
         "avg_latency,queue_delay,utilization,control_msgs,demand_msgs,"
         "invalidation_msgs,invalidated_lines";
}

std::string timeline_csv(const Observer& obs) {
  const TimelineSampler& tl = obs.timeline();
  std::string out = timeline_csv_header() + "\n";
  for (const CoreSample& s : tl.cores()) {
    const double miss_rate =
        s.accesses ? static_cast<double>(s.misses) / static_cast<double>(s.accesses)
                   : 0.0;
    appendf(out, "core,%u,%s,%" PRIu64 ",%d,%s,%s,%d,%" PRIu64 ",%" PRIu64
                 ",%s,%s,,,,,,\n",
            s.run, std::string(obs.run_name(s.run)).c_str(), s.epoch, s.core,
            s.app.c_str(), json_num(s.ipc).c_str(), s.ways, s.accesses, s.misses,
            json_num(miss_rate).c_str(), json_num(s.avg_latency).c_str());
  }
  for (const McuSample& s : tl.mcus()) {
    appendf(out, "mcu,%u,%s,%" PRIu64 ",%d,,,,,,,,%" PRIu64 ",%s,,,,\n",
            s.run, std::string(obs.run_name(s.run)).c_str(), s.epoch, s.mcu,
            s.queue_delay, json_num(s.utilization).c_str());
  }
  for (const ChipSample& s : tl.chips()) {
    appendf(out, "chip,%u,%s,%" PRIu64 ",,,,,,,,,,,%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 "\n",
            s.run, std::string(obs.run_name(s.run)).c_str(), s.epoch,
            s.control_msgs, s.demand_msgs, s.invalidation_msgs,
            s.invalidated_lines);
  }
  return out;
}

namespace {

/// Microseconds per simulator epoch: one epoch = i_intra = 0.1 ms.
constexpr double kUsPerEpoch = 100.0;

/// Trace process id for profiler tracks; run/scheme processes use their run
/// index (0..runs), so a high fixed pid keeps the two namespaces apart.
constexpr unsigned kProfTracePid = 1000;

void append_counter(std::string& out, std::uint32_t run, double ts,
                    const std::string& name, const char* key, double value) {
  appendf(out, "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%u,\"tid\":0,\"ts\":%.1f,"
               "\"args\":{\"%s\":%s}},\n",
          name.c_str(), run, ts, key, json_num(value).c_str());
}

/// The observer's trace entries: process/thread metadata, policy instants,
/// timeline counters, each terminated by ",\n".
void append_observer_events(std::string& out, const Observer& obs) {
  // Metadata: one trace process per run (scheme), named tile tracks.
  std::set<std::pair<std::uint32_t, int>> tids;
  for (const Event& e : obs.events().events())
    tids.insert({e.run, e.core >= 0 ? e.core : 0});
  const std::size_t runs =
      obs.run_names().empty() ? (tids.empty() ? 0 : 1) : obs.run_names().size();
  for (std::uint32_t r = 0; r < runs; ++r)
    appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"%s\"}},\n",
            r, json_escape(obs.run_name(r)).c_str());
  for (const auto& [run, tid] : tids)
    appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"tid\":%d,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"tile %d\"}},\n",
            run, tid, tid);

  // Policy events: instant events on the acting tile's track.
  for (const Event& e : obs.events().events()) {
    appendf(out, "{\"name\":\"%s\",\"cat\":\"policy\",\"ph\":\"i\",\"s\":\"t\","
                 "\"ts\":%.1f,\"pid\":%u,\"tid\":%d,\"args\":{\"bank\":%d,"
                 "\"peer\":%d,\"count\":%u,\"a\":%s,\"b\":%s}},\n",
            std::string(event_kind_name(e.kind)).c_str(),
            static_cast<double>(e.epoch) * kUsPerEpoch, e.run,
            e.core >= 0 ? e.core : 0, e.bank, e.other, e.count,
            json_num(e.a).c_str(), json_num(e.b).c_str());
  }

  // Timeline counters (allocated ways / IPC per core, MCU queueing).
  for (const CoreSample& s : obs.timeline().cores()) {
    const double ts = static_cast<double>(s.epoch) * kUsPerEpoch;
    char name[32];
    std::snprintf(name, sizeof name, "ways core%d", s.core);
    append_counter(out, s.run, ts, name, "ways", s.ways);
    std::snprintf(name, sizeof name, "ipc core%d", s.core);
    append_counter(out, s.run, ts, name, "ipc", s.ipc);
  }
  for (const McuSample& s : obs.timeline().mcus()) {
    const double ts = static_cast<double>(s.epoch) * kUsPerEpoch;
    char name[32];
    std::snprintf(name, sizeof name, "mcu%d queue", s.mcu);
    append_counter(out, s.run, ts, name, "cycles",
                   static_cast<double>(s.queue_delay));
    std::snprintf(name, sizeof name, "mcu%d util", s.mcu);
    append_counter(out, s.run, ts, name, "util", s.utilization);
  }
}

/// The profiler's phase spans: complete ("X") events in wall-clock
/// microseconds under kProfTracePid.  The policy events live in virtual
/// epoch time under their run pids, so the two timelines sit side by side
/// as separate processes in Perfetto.
void append_prof_spans(std::string& out, const prof::ProfSnapshot& snap) {
  appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
               "\"args\":{\"name\":\"engine prof (wall clock, level %s)\"}},\n",
          kProfTracePid, prof::to_string(snap.level));
  std::set<std::uint32_t> tids;
  for (const prof::Span& s : snap.spans) tids.insert(s.tid);
  for (const std::uint32_t tid : tids)
    appendf(out, "{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"thread %u\"}},\n",
            kProfTracePid, tid, tid);
  for (const prof::Span& s : snap.spans) {
    const std::string_view name = prof::phase_name(s.phase);
    appendf(out, "{\"name\":\"%.*s\",\"cat\":\"prof\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                 "\"args\":{\"epoch\":%" PRIu64 ",\"seq\":%" PRIu64 "}},\n",
            static_cast<int>(name.size()), name.data(),
            static_cast<double>(s.start_ns) / 1e3,
            static_cast<double>(s.dur_ns) / 1e3, kProfTracePid, s.tid, s.arg,
            s.seq);
  }
}

}  // namespace

std::string chrome_trace_json(const Observer* obs, const prof::ProfSnapshot* prof) {
  std::string out = "{\"traceEvents\":[\n";
  if (obs != nullptr) append_observer_events(out, *obs);
  if (prof != nullptr) append_prof_spans(out, *prof);
  // Trailing comma cleanup: drop the final ",\n" if any entry was written.
  if (out.size() >= 2 && out[out.size() - 2] == ',') out.erase(out.size() - 2, 1);
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  if (prof != nullptr)
    appendf(out, "\"prof_spans\":%zu,\"prof_dropped_spans\":%" PRIu64 "%s",
            prof->spans.size(), prof->dropped_spans, obs != nullptr ? "," : "");
  if (obs != nullptr)
    appendf(out, "\"dropped_events\":%" PRIu64 ",\"recorded_events\":%zu",
            obs->events().dropped(), obs->events().size());
  out += "}}\n";
  return out;
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written != content.size()) std::fclose(f);
  return ok;
}

}  // namespace delta::obs
