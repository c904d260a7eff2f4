#include "obs/export.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>

#include "util/cycles.hh"

namespace ssla::obs
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// ChromeTraceCollector

void
ChromeTraceCollector::dump(const SessionTrace &trace)
{
    Captured cap;
    cap.serial = trace.serial();
    cap.track = trace.track();
    cap.outcome = trace.outcome();
    cap.dropped = trace.dropped();
    cap.events = trace.events();
    std::lock_guard<std::mutex> lock(m_);
    traces_.push_back(std::move(cap));
}

size_t
ChromeTraceCollector::traceCount() const
{
    std::lock_guard<std::mutex> lock(m_);
    return traces_.size();
}

namespace
{

/**
 * A rendered trace event awaiting emission: sorted by timestamp so
 * every (pid, tid) track is monotonically ordered in the file, which
 * ssla_analyze's ingest asserts.
 */
struct Emitted
{
    double ts;
    std::string json;
};

/** Sub-track id: each worker track fans out per recording side. */
uint64_t
exportTid(uint32_t track, uint8_t side)
{
    return static_cast<uint64_t>(track) * 8 + side;
}

/**
 * Event args. Every event carries the owning trace's serial so a
 * consumer (ssla_analyze's Chrome ingest) can regroup the flat event
 * stream back into sessions; @p extra appends pre-rendered members
 * (span outcome, scaled queue wait).
 */
std::string
eventArgs(const TraceEvent &e, uint64_t serial,
          const std::string &extra = {})
{
    std::string args = "{\"serial\":" + std::to_string(serial) +
                       ",\"tick\":" + std::to_string(e.tick);
    if (e.code)
        args += ",\"code\":" + std::to_string(e.code);
    if (e.arg)
        args += ",\"arg\":" + std::to_string(e.arg);
    if (!e.text.empty())
        args += ",\"text\":\"" + jsonEscape(e.text) + "\"";
    args += extra;
    args += "}";
    return args;
}

std::string
eventName(const TraceEvent &e)
{
    std::string name = traceEventKindName(e.kind);
    if (e.label) {
        name += ":";
        name += e.label;
    }
    return name;
}

std::string
fmtTs(double ts)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", ts);
    return buf;
}

} // anonymous namespace

void
ChromeTraceCollector::write(std::FILE *out) const
{
    std::vector<Captured> traces;
    {
        std::lock_guard<std::mutex> lock(m_);
        traces = traces_;
    }

    // Common time base: the earliest cycle stamp across all traces.
    uint64_t base = ~0ull;
    for (const auto &t : traces)
        for (const auto &e : t.events)
            base = std::min(base, e.cycles);
    if (base == ~0ull)
        base = 0;
    const double hz = cycleHz();
    auto toUs = [&](uint64_t cycles) {
        return static_cast<double>(cycles - base) / hz * 1e6;
    };

    std::vector<Emitted> events;
    std::vector<std::string> metadata;
    std::vector<uint64_t> namedTids;

    auto nameTid = [&](uint32_t track, uint8_t side) {
        uint64_t tid = exportTid(track, side);
        if (std::find(namedTids.begin(), namedTids.end(), tid) !=
            namedTids.end())
            return tid;
        namedTids.push_back(tid);
        std::string name;
        if (track >= cryptoTrackBase)
            name = "crypto-" + std::to_string(track - cryptoTrackBase);
        else
            name = "worker-" + std::to_string(track);
        name += ".";
        name += traceSideName(side);
        metadata.push_back(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
            ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
            jsonEscape(name) + "\"}}");
        return tid;
    };

    for (const auto &t : traces) {
        if (t.events.empty())
            continue;
        const uint64_t lastCycles = t.events.back().cycles;

        // Session lifetime: async begin/end span keyed by serial.
        {
            uint64_t tid = nameTid(t.track, t.events.front().side);
            double b = toUs(t.events.front().cycles);
            double e = std::max(toUs(lastCycles), b);
            std::string id = "\"0x" + [&] {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%" PRIx64, t.serial);
                return std::string(buf);
            }() + "\"";
            std::string common =
                ",\"cat\":\"session\",\"name\":\"session\",\"pid\":1"
                ",\"tid\":" + std::to_string(tid) + ",\"id\":" + id;
            events.push_back(
                {b, "{\"ph\":\"b\",\"ts\":" + fmtTs(b) + common +
                        ",\"args\":{\"serial\":" +
                        std::to_string(t.serial) + ",\"outcome\":\"" +
                        jsonEscape(t.outcome) + "\",\"dropped\":" +
                        std::to_string(t.dropped) + "}}"});
            events.push_back(
                {e, "{\"ph\":\"e\",\"ts\":" + fmtTs(e) + common + "}"});
        }

        for (size_t i = 0; i < t.events.size(); ++i) {
            const TraceEvent &e = t.events[i];
            uint64_t tid = nameTid(t.track, e.side);
            double ts = toUs(e.cycles);

            bool isSpanStart = e.kind == TraceEventKind::StateEnter ||
                               e.kind == TraceEventKind::JobStart;
            if (isSpanStart) {
                // Span runs until the next span-start on the same
                // side (JobStart pairs with its JobEnd), or the end
                // of the trace.
                uint64_t endCycles = lastCycles;
                const TraceEvent *endEvent = nullptr;
                for (size_t j = i + 1; j < t.events.size(); ++j) {
                    const TraceEvent &n = t.events[j];
                    if (n.side != e.side)
                        continue;
                    if (e.kind == TraceEventKind::StateEnter &&
                        n.kind != TraceEventKind::StateEnter)
                        continue;
                    if (e.kind == TraceEventKind::JobStart &&
                        n.kind != TraceEventKind::JobEnd)
                        continue;
                    endCycles = n.cycles;
                    endEvent = &n;
                    break;
                }
                double dur = std::max(toUs(endCycles) - ts, 0.0);
                std::string extra;
                if (e.kind == TraceEventKind::JobStart) {
                    // Job-span verdict from the matched JobEnd, plus
                    // the queue wait rescaled to export time units so
                    // the analyzer needs no cycle-rate knowledge.
                    const char *outcome =
                        !endEvent ? "unfinished"
                        : endEvent->code ? "error"
                                         : "ok";
                    extra = std::string(",\"outcome\":\"") + outcome +
                            "\",\"wait_us\":" +
                            fmtTs(static_cast<double>(e.arg) / hz *
                                  1e6);
                }
                events.push_back(
                    {ts,
                     "{\"ph\":\"X\",\"ts\":" + fmtTs(ts) +
                         ",\"dur\":" + fmtTs(dur) +
                         ",\"cat\":\"" +
                         std::string(traceEventKindName(e.kind)) +
                         "\",\"name\":\"" + jsonEscape(eventName(e)) +
                         "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                         ",\"args\":" + eventArgs(e, t.serial, extra) +
                         "}"});
                continue;
            }
            if (e.kind == TraceEventKind::JobEnd)
                continue; // rendered as its JobStart's span end

            std::string extra;
            if (e.kind == TraceEventKind::DeadlineFired && e.arg)
                // A deadline fire's arg is the queue wait it wasted,
                // in cycles; rescale for cycle-rate-blind consumers.
                extra = ",\"wait_us\":" +
                        fmtTs(static_cast<double>(e.arg) / hz * 1e6);
            events.push_back(
                {ts, "{\"ph\":\"i\",\"ts\":" + fmtTs(ts) +
                         ",\"s\":\"t\",\"cat\":\"" +
                         std::string(traceEventKindName(e.kind)) +
                         "\",\"name\":\"" + jsonEscape(eventName(e)) +
                         "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                         ",\"args\":" + eventArgs(e, t.serial, extra) +
                         "}"});
        }
    }

    std::stable_sort(events.begin(), events.end(),
                     [](const Emitted &a, const Emitted &b) {
                         return a.ts < b.ts;
                     });

    std::fputs("{\"traceEvents\":[", out);
    bool first = true;
    metadata.insert(metadata.begin(),
                    "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\""
                    ",\"args\":{\"name\":\"ssla-serve\"}}");
    for (const auto &m : metadata) {
        std::fputs(first ? "\n" : ",\n", out);
        std::fputs(m.c_str(), out);
        first = false;
    }
    for (const auto &e : events) {
        std::fputs(first ? "\n" : ",\n", out);
        std::fputs(e.json.c_str(), out);
        first = false;
    }
    std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", out);
}

bool
ChromeTraceCollector::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    write(f);
    bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

// ---------------------------------------------------------------------
// Text snapshot

void
writeMetricsText(std::FILE *out, const MetricsSnapshot &snap)
{
    if (!snap.counters.empty()) {
        std::fputs("counters:\n", out);
        for (const auto &[name, v] : snap.counters)
            std::fprintf(out, "  %-40s %" PRIu64 "\n", name.c_str(), v);
    }
    if (!snap.gauges.empty()) {
        std::fputs("gauges:\n", out);
        for (const auto &[name, v] : snap.gauges)
            std::fprintf(out, "  %-40s %" PRId64 "\n", name.c_str(), v);
    }
    if (!snap.histograms.empty()) {
        std::fputs("histograms:\n", out);
        for (const auto &[name, h] : snap.histograms) {
            std::fprintf(out,
                         "  %-40s count=%" PRIu64
                         " mean=%.1f p50=%.0f p90=%.0f p99=%.0f"
                         " max=%" PRIu64 "\n",
                         name.c_str(), h.count, h.mean(),
                         h.percentile(50), h.percentile(90),
                         h.percentile(99), h.max);
        }
    }
}

// ---------------------------------------------------------------------
// Prometheus text exposition

namespace
{

/** Clamp a metric name to the Prometheus charset [a-zA-Z0-9_:]. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size() + 1);
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (!out.empty() && out.front() >= '0' && out.front() <= '9')
        out.insert(out.begin(), '_');
    return out;
}

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min<size_t>(static_cast<size_t>(n),
                                         sizeof(buf) - 1));
}

} // anonymous namespace

std::string
prometheusText(const MetricsSnapshot &snap)
{
    std::string out;
    for (const auto &[name, v] : snap.counters) {
        const std::string n = promName(name) + "_total";
        appendf(out, "# TYPE %s counter\n", n.c_str());
        appendf(out, "%s %" PRIu64 "\n", n.c_str(), v);
    }
    for (const auto &[name, v] : snap.gauges) {
        const std::string n = promName(name);
        appendf(out, "# TYPE %s gauge\n", n.c_str());
        appendf(out, "%s %" PRId64 "\n", n.c_str(), v);
    }
    for (const auto &[name, h] : snap.histograms) {
        const std::string n = promName(name);
        appendf(out, "# TYPE %s summary\n", n.c_str());
        appendf(out, "%s{quantile=\"0.5\"} %.0f\n", n.c_str(),
                h.percentile(50));
        appendf(out, "%s{quantile=\"0.9\"} %.0f\n", n.c_str(),
                h.percentile(90));
        appendf(out, "%s{quantile=\"0.99\"} %.0f\n", n.c_str(),
                h.percentile(99));
        appendf(out, "%s_sum %" PRIu64 "\n", n.c_str(), h.sum);
        appendf(out, "%s_count %" PRIu64 "\n", n.c_str(), h.count);
    }
    return out;
}

void
writePrometheusText(std::FILE *out, const MetricsSnapshot &snap)
{
    const std::string text = prometheusText(snap);
    std::fwrite(text.data(), 1, text.size(), out);
}

} // namespace ssla::obs
