/**
 * @file
 * Typed in-memory event graph the analysis passes run over.
 *
 * The obs layer's one trace format, Chrome trace_event JSON
 * (ChromeTraceCollector), normalizes into a Corpus of SessionRecords
 * (engine sessions on worker tracks, crypto-pool/supervisor threads on
 * control tracks >= cryptoTrackBase), each an ordered list of
 * AnalysisEvents — the parsed TraceEvent fields plus the session's
 * terminal outcome. The export carries "i" instants, "X" spans
 * (StateEnter residency, JobStart..JobEnd service) and the session's
 * async "b"/"e" pair, timestamped in microseconds; service spans are
 * re-split into their begin/end instants. Passes never look at JSON;
 * they walk this graph.
 *
 * Ingest is the trace validator: a malformed event fails with its
 * index and the defect (IngestError) rather than being skipped — a
 * truncated trace should be debugged, not averaged over.
 */

#ifndef SSLA_OBS_ANALYSIS_MODEL_HH
#define SSLA_OBS_ANALYSIS_MODEL_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analysis/json.hh"

namespace ssla::obs::analysis
{

/** Track index at which crypto-pool threads start (obs contract). */
constexpr uint32_t analysisCryptoTrackBase = 1000;

/** Malformed trace input; message names the event and the defect. */
class IngestError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One normalized trace event. */
struct AnalysisEvent
{
    double t = 0.0;    ///< timestamp, microseconds
    uint64_t tick = 0; ///< engine virtual tick (multiplexer sweep)
    std::string kind;  ///< TraceEventKind name ("Park", "JobStart"...)
    std::string label; ///< event label ("rsa_decrypt", "corrupt"...)
    std::string side;  ///< recording side ("server", "engine"...)
    uint16_t code = 0; ///< alert code / JobClass stamp / error flag
    uint64_t arg = 0;  ///< size / queue-wait / service cycles...
    double argT = 0.0; ///< arg rescaled to microseconds (when arg is
                       ///< a duration)
    std::string text;  ///< dynamic payload (log capture)
};

/** One session's (or control thread's) complete event history. */
struct SessionRecord
{
    uint64_t serial = 0;
    uint32_t track = 0;
    std::string outcome = "open";
    uint64_t dropped = 0;
    std::vector<AnalysisEvent> events; ///< time-ordered

    bool
    isCryptoTrack() const
    {
        return track >= analysisCryptoTrackBase;
    }

    double
    startT() const
    {
        return events.empty() ? 0.0 : events.front().t;
    }

    double
    endT() const
    {
        return events.empty() ? 0.0 : events.back().t;
    }

    double duration() const { return endT() - startT(); }
};

/** Everything one analysis run sees. */
struct Corpus
{
    /** Sessions sorted by (track, serial); crypto tracks included. */
    std::vector<SessionRecord> sessions;
    /** Optional metrics snapshot (Prometheus text), name -> value. */
    std::map<std::string, double> metrics;
    /** Quantile series from the snapshot: name{quantile} -> value. */
    std::map<std::string, double> metricQuantiles;

    size_t
    totalEvents() const
    {
        size_t n = 0;
        for (const auto &s : sessions)
            n += s.events.size();
        return n;
    }

    /** Engine sessions only (excludes crypto/supervisor tracks). */
    size_t
    sessionCount() const
    {
        size_t n = 0;
        for (const auto &s : sessions)
            if (!s.isCryptoTrack())
                ++n;
        return n;
    }
};

/**
 * Ingest a Chrome trace_event JSON document (ChromeTraceCollector
 * output), validating its shape on the way in. Events are grouped per
 * session by the exporter's args.serial stamp. Rejected:
 *  - an empty traceEvents list;
 *  - an event without name/ph/pid, or a non-metadata event without
 *    tid/ts;
 *  - a negative ts, or one below its (pid, tid) track's previous ts;
 *  - an "X" span without dur >= 0;
 *  - a "b"/"X"/"i" event without an integer args.serial;
 *  - a JobStart span without args.outcome in {ok, error, unfinished};
 *  - a "b"/"e" without an id, an "e" with no open "b" of the same
 *    (pid, cat, id), and a "b" never closed;
 *  - a session "b" without a non-empty string args.outcome.
 * @throws IngestError naming the event and the defect
 */
Corpus ingestChrome(const Json &doc);

/**
 * Load and ingestChrome() a trace file.
 * @throws IngestError naming the path on unreadable or malformed input
 */
Corpus ingestTraceFile(const std::string &path);

/**
 * Parse a Prometheus text-exposition snapshot (writePrometheusText
 * output) into @p corpus.metrics / metricQuantiles. Unknown lines
 * fail; the format is ours end to end.
 */
void ingestPrometheus(std::string_view text, Corpus &corpus);

/** Read a whole file; throws IngestError when unreadable. */
std::string readFileOrThrow(const std::string &path);

} // namespace ssla::obs::analysis

#endif // SSLA_OBS_ANALYSIS_MODEL_HH
