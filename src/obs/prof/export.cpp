#include "obs/prof/export.hpp"

#include <cinttypes>

#include "obs/export.hpp"

namespace delta::obs::prof {
namespace {

void append_histogram_json(std::string& out, const LogHistogram& h) {
  appendf(out, "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"mean\":%s,"
               "\"p50\":%" PRIu64 ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
          h.total(), h.sum(), json_num(h.mean()).c_str(), h.quantile(0.5),
          h.quantile(0.95), h.quantile(0.99));
}

}  // namespace

std::string prometheus_text(const RegistrySnapshot& reg) {
  std::string out;
  for (const MetricSample& m : reg.metrics) {
    appendf(out, "# HELP %s %s\n", m.name.c_str(), m.help.c_str());
    switch (m.kind) {
      case MetricKind::kCounter:
        appendf(out, "# TYPE %s counter\n%s %.17g\n", m.name.c_str(),
                m.name.c_str(), m.value);
        break;
      case MetricKind::kGauge:
        appendf(out, "# TYPE %s gauge\n%s %.17g\n", m.name.c_str(),
                m.name.c_str(), m.value);
        break;
      case MetricKind::kHistogram: {
        appendf(out, "# TYPE %s histogram\n", m.name.c_str());
        // Cumulative le buckets up to the highest occupied one; the +Inf
        // bucket always closes the series.
        std::size_t top = 0;
        for (std::size_t b = 0; b < LogHistogram::kBuckets; ++b)
          if (m.hist.count(b) > 0) top = b;
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b <= top; ++b) {
          cum += m.hist.count(b);
          appendf(out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n",
                  m.name.c_str(), LogHistogram::bucket_hi(b), cum);
        }
        appendf(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", m.name.c_str(),
                m.hist.total());
        appendf(out, "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n",
                m.name.c_str(), m.hist.sum(), m.name.c_str(), m.hist.total());
        break;
      }
    }
  }
  return out;
}

std::string metrics_json(const RegistrySnapshot& reg, const ProfSnapshot& snap) {
  std::string out = "{\n  \"schema\": \"delta-prof-metrics-v1\",\n";
  appendf(out, "  \"level\": \"%s\",\n", to_string(snap.level));

  out += "  \"metrics\": {\n";
  for (std::size_t i = 0; i < reg.metrics.size(); ++i) {
    const MetricSample& m = reg.metrics[i];
    appendf(out, "    \"%s\": ", json_escape(m.name).c_str());
    if (m.kind == MetricKind::kHistogram) {
      append_histogram_json(out, m.hist);
    } else {
      out += json_num(m.value);
    }
    out += i + 1 < reg.metrics.size() ? ",\n" : "\n";
  }
  out += "  },\n";

  out += "  \"phase_ns\": {\n";
  for (std::size_t p = 0; p < static_cast<std::size_t>(Phase::kCount); ++p) {
    const Phase ph = static_cast<Phase>(p);
    appendf(out, "    \"%.*s\": %" PRIu64,
            static_cast<int>(phase_name(ph).size()), phase_name(ph).data(),
            snap.phase_ns(ph));
    out += p + 1 < static_cast<std::size_t>(Phase::kCount) ? ",\n" : "\n";
  }
  out += "  },\n";

  out += "  \"sites\": {\n";
  for (std::size_t s = 0; s < snap.sites.size(); ++s) {
    const Site site = static_cast<Site>(s);
    const SiteTotal& t = snap.sites[s];
    appendf(out, "    \"%.*s\": {\"calls\":%" PRIu64 ",\"ns\":%" PRIu64
                 ",\"hist\":",
            static_cast<int>(site_name(site).size()), site_name(site).data(),
            t.calls, t.ns);
    append_histogram_json(out, t.hist);
    out += "}";
    out += s + 1 < snap.sites.size() ? ",\n" : "\n";
  }
  out += "  },\n";

  appendf(out, "  \"spans\": %zu,\n  \"dropped_spans\": %" PRIu64 "\n}\n",
          snap.spans.size(), snap.dropped_spans);
  return out;
}

}  // namespace delta::obs::prof
