/**
 * @file
 * Exporters for the observability layer.
 *
 *  - ChromeTraceCollector: a TraceSink that accumulates completed
 *    session traces and writes Chrome trace_event JSON loadable in
 *    chrome://tracing or Perfetto. Each worker (and each crypto-pool
 *    thread) gets its own named track; within a worker, server and
 *    client endpoints render as sub-tracks. Handshake states become
 *    "X" complete spans, point events become "i" instants, and the
 *    session lifetime is an async "b"/"e" span keyed by the session
 *    serial. This is the obs layer's one trace format; ssla_analyze
 *    ingests and validates it.
 *  - writeMetricsText: plain-text snapshot dump (counters, gauges and
 *    histogram percentiles) for bench stderr summaries.
 *
 * The collector is thread-safe; engine workers dump concurrently.
 */

#ifndef SSLA_OBS_EXPORT_HH
#define SSLA_OBS_EXPORT_HH

#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace ssla::obs
{

/** Track offset for crypto-pool threads (worker tracks start at 0). */
constexpr uint32_t cryptoTrackBase = 1000;

/** Track for the Supervisor's control-plane events (restarts). */
constexpr uint32_t supervisorTrack = 999;

/**
 * Escape a string for embedding in a JSON string literal: quotes,
 * backslashes and all control characters (the latter as \u00XX).
 */
std::string jsonEscape(std::string_view s);

/** Collects traces and renders Chrome trace_event JSON. */
class ChromeTraceCollector : public TraceSink
{
  public:
    void dump(const SessionTrace &trace) override;

    /** Number of traces captured so far. */
    size_t traceCount() const;

    /** Render every captured trace as a trace_event JSON document. */
    void write(std::FILE *out) const;

    /** write() to @p path; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Captured
    {
        uint64_t serial;
        uint32_t track;
        std::string outcome;
        uint64_t dropped;
        std::vector<TraceEvent> events;
    };

    mutable std::mutex m_;
    std::vector<Captured> traces_;
};

/** Plain-text metrics dump: counters, gauges, histogram percentiles. */
void writeMetricsText(std::FILE *out, const MetricsSnapshot &snap);

/**
 * Prometheus text exposition (format 0.0.4) of a snapshot: counters as
 * `<name>_total`, gauges verbatim, histograms as summaries (quantile
 * series plus `_sum`/`_count`). Metric names are sanitized to the
 * Prometheus charset (dots and dashes become underscores), so
 * "serve.park_events" scrapes as serve_park_events_total. This is what
 * the web server's /metrics route serves.
 */
void writePrometheusText(std::FILE *out, const MetricsSnapshot &snap);

/** writePrometheusText into a string (for HTTP response bodies). */
std::string prometheusText(const MetricsSnapshot &snap);

} // namespace ssla::obs

#endif // SSLA_OBS_EXPORT_HH
