#include "obs/analysis/pass.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

namespace ssla::obs::analysis
{

std::string
strf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    char buf[512];
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n < 0)
        return {};
    if (static_cast<size_t>(n) < sizeof(buf))
        return std::string(buf, static_cast<size_t>(n));
    std::string big(static_cast<size_t>(n), '\0');
    va_start(ap, fmt);
    std::vsnprintf(big.data(), big.size() + 1, fmt, ap);
    va_end(ap);
    return big;
}

std::string
Report::render() const
{
    std::string out;
    for (const auto &s : sections_) {
        out += "== " + s.title + " ==\n";
        for (const auto &line : s.lines) {
            out += line;
            out += '\n';
        }
        out += '\n';
    }
    return out;
}

namespace
{

/** Format a duration (microseconds). */
std::string
fmtT(double v)
{
    return strf("%.3f us", v);
}

std::string
fmtPct(double part, double whole)
{
    return whole > 0.0 ? strf("%5.1f%%", 100.0 * part / whole)
                       : std::string(" n/a ");
}

// ---------------------------------------------------------------------

class SummaryPass final : public Pass
{
  public:
    const char *name() const override { return "summary"; }

    const char *
    description() const override
    {
        return "corpus shape: sessions, events, outcome histogram";
    }

    void
    run(const Corpus &corpus, Report &report) const override
    {
        auto &sec = report.section("summary");
        size_t cryptoTracks = 0;
        uint64_t dropped = 0;
        std::map<std::string, size_t> outcomes;
        for (const auto &s : corpus.sessions) {
            if (s.isCryptoTrack()) {
                ++cryptoTracks;
                continue;
            }
            ++outcomes[s.outcome];
            dropped += s.dropped;
        }
        sec.lines.push_back(strf(
            "sessions=%zu crypto_tracks=%zu events=%zu dropped=%llu",
            corpus.sessionCount(), cryptoTracks, corpus.totalEvents(),
            static_cast<unsigned long long>(dropped)));
        for (const auto &[outcome, n] : outcomes)
            sec.lines.push_back(
                strf("outcome %-12s %zu", outcome.c_str(), n));
        if (!corpus.metrics.empty())
            sec.lines.push_back(strf(
                "metrics=%zu quantile_series=%zu",
                corpus.metrics.size(), corpus.metricQuantiles.size()));
    }
};

// ---------------------------------------------------------------------

/**
 * Attribute each engine session's wall clock to what it was doing:
 * park:<reason> while parked on a crypto job, state:<name> residency
 * otherwise. The gap between consecutive events belongs to the
 * activity in force when the gap started.
 */
class CriticalPathPass final : public Pass
{
  public:
    const char *name() const override { return "critical_path"; }

    const char *
    description() const override
    {
        return "per-session wall-clock attribution by park/state";
    }

    void
    run(const Corpus &corpus, Report &report) const override
    {
        auto &sec = report.section("critical_path");
        std::map<std::string, double> totals;
        double wall = 0.0;

        struct Slow
        {
            double duration;
            const SessionRecord *rec;
            std::map<std::string, double> buckets;
        };
        std::vector<Slow> slow;

        for (const auto &s : corpus.sessions) {
            if (s.isCryptoTrack() || s.events.size() < 2)
                continue;
            std::map<std::string, double> buckets;
            std::string bucket = "setup";
            for (size_t k = 0; k + 1 < s.events.size(); ++k) {
                const AnalysisEvent &ev = s.events[k];
                if (ev.kind == "Park")
                    bucket = "park:" + (ev.label.empty() ? "crypto"
                                                         : ev.label);
                else if (ev.kind == "Resume")
                    bucket = "post-resume";
                if (ev.kind == "StateEnter" && ev.side == "server")
                    bucket = "state:" +
                             (ev.label.empty() ? "?" : ev.label);
                buckets[bucket] += s.events[k + 1].t - ev.t;
            }
            for (const auto &[b, t] : buckets)
                totals[b] += t;
            wall += s.duration();
            slow.push_back({s.duration(), &s, std::move(buckets)});
        }

        if (totals.empty()) {
            sec.lines.push_back("no multi-event engine sessions");
            return;
        }

        std::vector<std::pair<std::string, double>> ranked(
            totals.begin(), totals.end());
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             if (a.second != b.second)
                                 return a.second > b.second;
                             return a.first < b.first;
                         });
        sec.lines.push_back(
            strf("attributed wall clock across %zu sessions: %s",
                 slow.size(), fmtT(wall).c_str()));
        for (const auto &[bucket, t] : ranked)
            sec.lines.push_back(strf(
                "  %-28s %s  %s", bucket.c_str(),
                fmtPct(t, wall).c_str(), fmtT(t).c_str()));

        std::stable_sort(slow.begin(), slow.end(),
                         [](const Slow &a, const Slow &b) {
                             if (a.duration != b.duration)
                                 return a.duration > b.duration;
                             if (a.rec->track != b.rec->track)
                                 return a.rec->track < b.rec->track;
                             return a.rec->serial < b.rec->serial;
                         });
        const size_t topK = std::min<size_t>(slow.size(), 5);
        sec.lines.push_back(strf("slowest %zu sessions:", topK));
        for (size_t k = 0; k < topK; ++k) {
            const Slow &sl = slow[k];
            std::vector<std::pair<std::string, double>> top(
                sl.buckets.begin(), sl.buckets.end());
            std::stable_sort(top.begin(), top.end(),
                             [](const auto &a, const auto &b) {
                                 if (a.second != b.second)
                                     return a.second > b.second;
                                 return a.first < b.first;
                             });
            std::string detail;
            for (size_t j = 0; j < std::min<size_t>(top.size(), 3);
                 ++j) {
                if (j)
                    detail += ", ";
                detail += top[j].first + "=" + fmtT(top[j].second);
            }
            sec.lines.push_back(strf(
                "  serial=%llu track=%u outcome=%s dur=%s  [%s]",
                static_cast<unsigned long long>(sl.rec->serial),
                sl.rec->track, sl.rec->outcome.c_str(),
                fmtT(sl.duration).c_str(), detail.c_str()));
        }
    }
};

// ---------------------------------------------------------------------

class WorkerImbalancePass final : public Pass
{
  public:
    const char *name() const override { return "worker_imbalance"; }

    const char *
    description() const override
    {
        return "per-worker session/busy-time skew, per-crypto-thread "
               "job counts";
    }

    void
    run(const Corpus &corpus, Report &report) const override
    {
        auto &sec = report.section("worker_imbalance");

        struct WorkerStat
        {
            size_t sessions = 0;
            size_t events = 0;
            double busy = 0.0;
            double minT = 0.0, maxT = 0.0;
            bool seen = false;
        };
        std::map<uint32_t, WorkerStat> workers;
        std::map<uint32_t, size_t> cryptoJobs;

        for (const auto &s : corpus.sessions) {
            if (s.isCryptoTrack()) {
                size_t jobs = 0;
                for (const auto &e : s.events)
                    if (e.kind == "JobStart")
                        ++jobs;
                cryptoJobs[s.track] += jobs;
                continue;
            }
            WorkerStat &w = workers[s.track];
            ++w.sessions;
            w.events += s.events.size();
            w.busy += s.duration();
            if (!w.seen || s.startT() < w.minT)
                w.minT = s.startT();
            if (!w.seen || s.endT() > w.maxT)
                w.maxT = s.endT();
            w.seen = true;
        }

        if (workers.empty()) {
            sec.lines.push_back("no engine sessions");
        } else {
            size_t minSessions = SIZE_MAX, maxSessions = 0;
            double meanSessions = 0.0;
            for (const auto &[track, w] : workers) {
                minSessions = std::min(minSessions, w.sessions);
                maxSessions = std::max(maxSessions, w.sessions);
                meanSessions += static_cast<double>(w.sessions);
                const double span = w.maxT - w.minT;
                sec.lines.push_back(strf(
                    "worker %-3u sessions=%-5zu events=%-6zu "
                    "busy=%s span=%s avg_concurrency=%.2f",
                    track, w.sessions, w.events,
                    fmtT(w.busy).c_str(), fmtT(span).c_str(),
                    span > 0.0 ? w.busy / span : 0.0));
            }
            meanSessions /= static_cast<double>(workers.size());
            sec.lines.push_back(strf(
                "session imbalance: min=%zu max=%zu spread=%s of mean",
                minSessions, maxSessions,
                fmtPct(static_cast<double>(maxSessions - minSessions),
                       meanSessions)
                    .c_str()));
        }
        for (const auto &[track, jobs] : cryptoJobs)
            sec.lines.push_back(strf(
                "crypto thread %-3u jobs=%zu",
                track - analysisCryptoTrackBase, jobs));
    }
};

// ---------------------------------------------------------------------

/** JobClass stamp decoding: producers stamp code = JobClass + 1. */
const char *
jobClassFromCode(uint16_t code)
{
    switch (code) {
    case 1: return "resumption";
    case 2: return "continuation";
    case 3: return "new_full";
    }
    return "unknown";
}

class QueueDelayPass final : public Pass
{
  public:
    const char *name() const override { return "queue_delay"; }

    const char *
    description() const override
    {
        return "crypto queue-wait vs service split per JobClass, "
               "deadline/shed loss";
    }

    void
    run(const Corpus &corpus, Report &report) const override
    {
        auto &sec = report.section("queue_delay");

        struct ClassStat
        {
            size_t jobs = 0;
            size_t errors = 0;
            double wait = 0.0;
            double service = 0.0;
            size_t deadlineLost = 0;
            double deadlineWait = 0.0;
        };
        std::map<std::string, ClassStat> classes;
        size_t cancels = 0;

        for (const auto &s : corpus.sessions) {
            if (!s.isCryptoTrack()) {
                for (const auto &e : s.events)
                    if (e.kind == "CryptoCancel")
                        ++cancels;
                continue;
            }
            const AnalysisEvent *start = nullptr;
            for (const auto &e : s.events) {
                if (e.kind == "JobStart") {
                    start = &e;
                } else if (e.kind == "JobEnd" && start) {
                    ClassStat &cs =
                        classes[jobClassFromCode(start->code)];
                    ++cs.jobs;
                    cs.wait += start->argT;
                    cs.service += e.t - start->t;
                    if (e.code != 0)
                        ++cs.errors;
                    start = nullptr;
                } else if (e.kind == "DeadlineFired") {
                    ClassStat &cs = classes[e.label.empty()
                                                ? "unknown"
                                                : e.label];
                    ++cs.deadlineLost;
                    cs.deadlineWait += e.argT;
                }
            }
        }

        if (classes.empty()) {
            sec.lines.push_back("no crypto jobs in corpus");
            return;
        }
        for (const auto &[cls, cs] : classes) {
            const double total = cs.wait + cs.service;
            sec.lines.push_back(strf(
                "class %-12s jobs=%-5zu errors=%zu "
                "wait=%s (%s of job time) service=%s",
                cls.c_str(), cs.jobs, cs.errors,
                fmtT(cs.wait).c_str(),
                fmtPct(cs.wait, total).c_str(),
                fmtT(cs.service).c_str()));
            if (cs.jobs > 0)
                sec.lines.push_back(strf(
                    "  mean wait=%s mean service=%s",
                    fmtT(cs.wait / static_cast<double>(cs.jobs)).c_str(),
                    fmtT(cs.service / static_cast<double>(cs.jobs))
                        .c_str()));
            if (cs.deadlineLost > 0)
                sec.lines.push_back(strf(
                    "  deadline-fired=%zu wasted wait=%s",
                    cs.deadlineLost,
                    fmtT(cs.deadlineWait).c_str()));
        }
        sec.lines.push_back(strf("cancelled jobs (session side): %zu",
                                 cancels));
    }
};

// ---------------------------------------------------------------------

class OutcomeClustersPass final : public Pass
{
  public:
    const char *name() const override { return "outcome_clusters"; }

    const char *
    description() const override
    {
        return "failed sessions grouped by outcome + alert + "
               "last-state + fault";
    }

    void
    run(const Corpus &corpus, Report &report) const override
    {
        auto &sec = report.section("outcome_clusters");

        struct Cluster
        {
            size_t count = 0;
            uint64_t exampleSerial = UINT64_MAX;
        };
        std::map<std::string, Cluster> clusters;
        size_t completed = 0, failed = 0;

        for (const auto &s : corpus.sessions) {
            if (s.isCryptoTrack())
                continue;
            if (s.outcome == "completed") {
                ++completed;
                continue;
            }
            ++failed;
            uint16_t alert = 0;
            std::string lastState = "-";
            std::string fault = "-";
            for (const auto &e : s.events) {
                if (e.kind == "AlertSend" || e.kind == "AlertRecv")
                    alert = e.code;
                else if (e.kind == "StateEnter" &&
                         e.side == "server")
                    lastState = e.label.empty() ? "?" : e.label;
                else if (e.kind == "FaultInjected")
                    fault = e.label.empty() ? "?" : e.label;
            }
            std::string key = strf(
                "outcome=%-10s alert=%-3u state=%-22s fault=%s",
                s.outcome.c_str(), alert, lastState.c_str(),
                fault.c_str());
            Cluster &c = clusters[key];
            ++c.count;
            c.exampleSerial = std::min(c.exampleSerial, s.serial);
        }

        sec.lines.push_back(
            strf("completed=%zu failed=%zu clusters=%zu", completed,
                 failed, clusters.size()));
        std::vector<std::pair<std::string, Cluster>> ranked(
            clusters.begin(), clusters.end());
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             if (a.second.count != b.second.count)
                                 return a.second.count > b.second.count;
                             return a.first < b.first;
                         });
        for (const auto &[key, c] : ranked)
            sec.lines.push_back(strf(
                "  x%-4zu %s  e.g. serial=%llu", c.count, key.c_str(),
                static_cast<unsigned long long>(c.exampleSerial)));
    }
};

} // anonymous namespace

PassRegistry
makeBuiltinRegistry()
{
    PassRegistry registry;
    registry.add(std::make_unique<SummaryPass>());
    registry.add(std::make_unique<CriticalPathPass>());
    registry.add(std::make_unique<WorkerImbalancePass>());
    registry.add(std::make_unique<QueueDelayPass>());
    registry.add(std::make_unique<OutcomeClustersPass>());
    return registry;
}

} // namespace ssla::obs::analysis
