#include "obs/analysis/model.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>

namespace ssla::obs::analysis
{

namespace
{

const char *
sideNameFromIndex(uint64_t side)
{
    switch (side) {
    case 0: return "server";
    case 1: return "client";
    case 2: return "engine";
    case 3: return "channel";
    }
    return "unknown";
}

/** Split an exported event name "Kind:label" back into its parts. */
void
splitName(const std::string &name, std::string &kind,
          std::string &label)
{
    size_t colon = name.find(':');
    if (colon == std::string::npos) {
        kind = name;
        label.clear();
    } else {
        kind = name.substr(0, colon);
        label = name.substr(colon + 1);
    }
}

using SessionKey = std::pair<uint32_t, uint64_t>; // (track, serial)

/** Key text for a pid or async id; empty unless a number or string. */
std::string
scalarKey(const Json &v)
{
    switch (v.type) {
    case Json::Type::Int: return std::to_string(v.i);
    case Json::Type::Uint: return std::to_string(v.u);
    case Json::Type::Double: return std::to_string(v.d);
    case Json::Type::String: return '"' + v.str + '"';
    default: return {};
    }
}

std::string
fmtTs(double ts)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", ts);
    return buf;
}

} // anonymous namespace

std::string
readFileOrThrow(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw IngestError(path + ": cannot open file");
    std::string out;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad)
        throw IngestError(path + ": read error");
    return out;
}

// ---------------------------------------------------------------------
// Chrome trace ingest

Corpus
ingestChrome(const Json &doc)
{
    const Json *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        throw IngestError(
            "chrome trace: root must be an object with a "
            "'traceEvents' array");
    if (events->arr.empty())
        throw IngestError("chrome trace: traceEvents is empty");

    std::map<SessionKey, SessionRecord> records;
    // (pid, tid) -> latest ts; (pid, cat, id) -> unclosed "b" count.
    std::map<std::pair<std::string, uint64_t>, double> lastTs;
    std::map<std::tuple<std::string, std::string, std::string>, size_t>
        openAsync;

    for (size_t index = 0; index < events->arr.size(); ++index) {
        const Json &ev = events->arr[index];
        std::string where = "chrome trace event " + std::to_string(index);
        auto fail = [&](const std::string &defect) {
            return IngestError(where + ": " + defect);
        };
        if (!ev.isObject())
            throw fail("not an object");
        const std::string *ph = ev.findString("ph");
        const std::string *name = ev.findString("name");
        const Json *pidV = ev.find("pid");
        if (!ph)
            throw fail("missing string 'ph'");
        if (!name)
            throw fail("missing string 'name'");
        if (!pidV || scalarKey(*pidV).empty())
            throw fail("missing numeric or string 'pid'");
        if (*ph == "M")
            continue; // metadata (track names) carries no timestamp
        where += " (" + *ph + " '" + *name + "')";

        const Json *tidV = ev.find("tid");
        const Json *tsV = ev.find("ts");
        if (!tidV || !tidV->isNumber())
            throw fail("missing numeric 'tid'");
        if (!tsV || !tsV->isNumber())
            throw fail("missing numeric 'ts'");
        const std::string pid = scalarKey(*pidV);
        const uint64_t tid = tidV->asU64();
        const double ts = tsV->number();
        if (ts < 0)
            throw fail("negative ts " + fmtTs(ts));
        // The exporter stable-sorts by ts, so an inversion is a bug.
        auto [last, fresh] = lastTs.try_emplace({pid, tid}, ts);
        if (!fresh && ts < last->second)
            throw fail("ts " + fmtTs(ts) + " < previous " +
                       fmtTs(last->second) + " on track (pid " + pid +
                       ", tid " + std::to_string(tid) + ")");
        last->second = ts;

        const Json *args = ev.find("args");
        const std::string *cat = ev.findString("cat");
        if (*ph == "e" || *ph == "b") {
            const Json *idV = ev.find("id");
            if (!idV || scalarKey(*idV).empty())
                throw fail("async event needs a numeric or string 'id'");
            const auto key = std::make_tuple(pid, cat ? *cat : "",
                                             scalarKey(*idV));
            if (*ph == "e") {
                auto open = openAsync.find(key);
                if (open == openAsync.end() || open->second == 0)
                    throw fail("'e' with no open 'b' for id " +
                               std::get<2>(key));
                --open->second;
                continue; // carries no args; "b" opened the session
            }
            ++openAsync[key];
        } else if (*ph != "X" && *ph != "i") {
            throw fail("unsupported phase '" + *ph + "'");
        }

        // Every "b"/"X"/"i" carries its trace's serial stamp, which
        // regroups the flat event stream into sessions.
        const Json *serialV = args ? args->find("serial") : nullptr;
        if (!serialV || !(serialV->type == Json::Type::Uint ||
                          (serialV->type == Json::Type::Int &&
                           serialV->i >= 0)))
            throw fail("needs a non-negative integer args.serial");
        const uint32_t track = static_cast<uint32_t>(tid / 8);
        SessionRecord &rec = records[{track, serialV->asU64()}];
        rec.serial = serialV->asU64();
        rec.track = track;

        if (*ph == "b") {
            const std::string *oc = args->findString("outcome");
            if (cat && *cat == "session" && (!oc || oc->empty()))
                throw fail("session 'b' needs a non-empty string "
                           "args.outcome");
            if (oc)
                rec.outcome = *oc;
            rec.dropped = args->findU64("dropped");
            continue;
        }

        AnalysisEvent out;
        out.t = ts;
        out.side = sideNameFromIndex(tid % 8);
        splitName(*name, out.kind, out.label);
        out.tick = args->findU64("tick");
        out.code = static_cast<uint16_t>(args->findU64("code"));
        out.arg = args->findU64("arg");
        out.argT =
            args->findNumber("wait_us", static_cast<double>(out.arg));
        if (const std::string *txt = args->findString("text"))
            out.text = *txt;

        if (*ph == "X") {
            const Json *durV = ev.find("dur");
            if (!durV || !durV->isNumber() || durV->number() < 0)
                throw fail("X span needs dur >= 0");
            if (out.kind == "JobStart") {
                // Re-split the service span into its begin/end pair.
                // An "unfinished" span (trace ended mid-job) gets no
                // end event.
                const std::string *oc = args->findString("outcome");
                if (!oc || (*oc != "ok" && *oc != "error" &&
                            *oc != "unfinished"))
                    throw fail("JobStart span needs args.outcome in "
                               "{ok,error,unfinished}");
                if (*oc == "unfinished") {
                    rec.events.push_back(std::move(out));
                    continue;
                }
                AnalysisEvent end;
                end.t = ts + durV->number();
                end.tick = out.tick;
                end.kind = "JobEnd";
                end.label = out.label;
                end.side = out.side;
                end.code = *oc == "error" ? 1 : 0;
                end.argT = durV->number();
                rec.events.push_back(out);
                rec.events.push_back(std::move(end));
                continue;
            }
            // StateEnter residency spans: the begin instant is the
            // original event; the end was the next state, which has
            // its own span.
        }
        rec.events.push_back(std::move(out));
    }

    for (const auto &[key, depth] : openAsync)
        if (depth > 0)
            throw IngestError("chrome trace: async id " +
                              std::get<2>(key) + ": " +
                              std::to_string(depth) +
                              " 'b' event(s) never closed");

    Corpus corpus;
    corpus.sessions.reserve(records.size());
    for (auto &[key, rec] : records) {
        std::stable_sort(rec.events.begin(), rec.events.end(),
                         [](const AnalysisEvent &a,
                            const AnalysisEvent &b) { return a.t < b.t; });
        corpus.sessions.push_back(std::move(rec));
    }
    return corpus;
}

Corpus
ingestTraceFile(const std::string &path)
{
    const std::string text = readFileOrThrow(path);
    try {
        return ingestChrome(parseJson(text));
    } catch (const std::runtime_error &e) { // JsonError or IngestError
        throw IngestError(path + ": " + e.what());
    }
}

// ---------------------------------------------------------------------
// Prometheus text snapshot

void
ingestPrometheus(std::string_view text, Corpus &corpus)
{
    size_t lineNo = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        std::string line(text.substr(
            pos, eol == std::string_view::npos ? std::string_view::npos
                                               : eol - pos));
        ++lineNo;
        pos = eol == std::string_view::npos ? text.size() : eol + 1;
        if (line.empty() || line[0] == '#')
            continue;

        size_t space = line.rfind(' ');
        if (space == std::string::npos || space == 0)
            throw IngestError("metrics line " + std::to_string(lineNo) +
                              ": expected '<name> <value>'");
        std::string name = line.substr(0, space);
        const std::string valueText = line.substr(space + 1);
        char *end = nullptr;
        double value = std::strtod(valueText.c_str(), &end);
        if (end == valueText.c_str())
            throw IngestError("metrics line " + std::to_string(lineNo) +
                              ": bad value '" + valueText + "'");

        size_t brace = name.find('{');
        if (brace != std::string::npos) {
            // name{quantile="0.99"} -> metricQuantiles["name{0.99}"]
            std::string base = name.substr(0, brace);
            std::string labels = name.substr(brace);
            size_t q = labels.find("quantile=\"");
            if (q == std::string::npos)
                throw IngestError("metrics line " +
                                  std::to_string(lineNo) +
                                  ": unsupported label set " + labels);
            size_t vstart = q + 10;
            size_t vend = labels.find('"', vstart);
            corpus.metricQuantiles[base + "{" +
                                   labels.substr(vstart, vend - vstart) +
                                   "}"] = value;
        } else {
            corpus.metrics[name] = value;
        }
    }
}

} // namespace ssla::obs::analysis
