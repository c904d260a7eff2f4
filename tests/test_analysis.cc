/**
 * @file
 * Trace-analysis framework tests: the strict JSON parser (exact
 * integers, rejection with line/column), Chrome ingest as the trace
 * validator (one rejection per shape rule, each naming its defect),
 * the exporter round trip (session history survives export and
 * ingest), pass determinism (byte-identical reports on the same
 * corpus), the bench-artifact schema check and regression diff, and
 * the outcome-keyed sampling policy (failed sessions survive 1-in-N
 * sampling end to end through a faulted engine run).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "obs/analysis/diff.hh"
#include "obs/analysis/model.hh"
#include "obs/analysis/pass.hh"
#include "obs/export.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "ssl/faultbio.hh"
#include "testkeys.hh"

namespace
{

using namespace ssla;
using namespace ssla::obs::analysis;
using obs::SessionTrace;
using obs::TraceEventKind;
using obs::TraceSampling;

// ---------------------------------------------------------------------
// JSON parser

TEST(AnalysisJson, ParsesExactIntegersBeyondDoubleMantissa)
{
    // 2^63 + 3 would round under a double; the parser must keep it.
    Json v = parseJson("{\"cycles\":9223372036854775811}");
    const Json *c = v.find("cycles");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->type, Json::Type::Uint);
    EXPECT_EQ(c->asU64(), 9223372036854775811ull);

    Json neg = parseJson("-42");
    EXPECT_EQ(neg.type, Json::Type::Int);
    EXPECT_EQ(neg.i, -42);

    Json d = parseJson("2.5e3");
    EXPECT_EQ(d.type, Json::Type::Double);
    EXPECT_DOUBLE_EQ(d.number(), 2500.0);
}

TEST(AnalysisJson, RejectsMalformedInputWithPosition)
{
    EXPECT_THROW(parseJson("{\"a\":NaN}"), JsonError);
    EXPECT_THROW(parseJson("{\"a\":1,}"), JsonError);
    EXPECT_THROW(parseJson("{\"a\":1} trailing"), JsonError);
    try {
        parseJson("{\n\"a\": nope\n}");
        FAIL() << "expected JsonError";
    } catch (const JsonError &e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(AnalysisJson, PreservesObjectMemberOrder)
{
    Json v = parseJson("{\"z\":1,\"a\":2,\"m\":3}");
    ASSERT_EQ(v.obj.size(), 3u);
    EXPECT_EQ(v.obj[0].first, "z");
    EXPECT_EQ(v.obj[1].first, "a");
    EXPECT_EQ(v.obj[2].first, "m");
}

// ---------------------------------------------------------------------
// Chrome ingest: the trace validator

// One worker session (open, instant, close) and one crypto job span.
const std::string kOpen =
    R"({"ph":"b","ts":0,"cat":"session","name":"session","pid":1,)"
    R"("tid":2,"id":"0x1","args":{"serial":1,"outcome":"completed"}})";
const std::string kInstant =
    R"({"ph":"i","ts":1,"s":"t","cat":"ConnOpen","name":"ConnOpen:clean",)"
    R"("pid":1,"tid":2,"args":{"serial":1}})";
const std::string kJob =
    R"({"ph":"X","ts":2,"dur":3,"cat":"JobStart","name":"JobStart:decrypt",)"
    R"("pid":1,"tid":8002,"args":{"serial":1000,"outcome":"ok"}})";
const std::string kClose =
    R"({"ph":"e","ts":6,"cat":"session","name":"session","pid":1,)"
    R"("tid":2,"id":"0x1"})";

/** The IngestError text for @p events, or "accepted". */
std::string
ingestDefect(const std::vector<std::string> &events)
{
    std::string doc = "{\"traceEvents\":[";
    for (size_t k = 0; k < events.size(); ++k)
        doc += (k ? "," : "") + events[k];
    doc += "]}";
    try {
        ingestChrome(parseJson(doc));
    } catch (const IngestError &e) {
        return e.what();
    }
    return "accepted";
}

void
expectRejected(const std::vector<std::string> &events,
               const std::string &defect)
{
    const std::string what = ingestDefect(events);
    EXPECT_NE(what.find(defect), std::string::npos) << "got: " << what;
}

/** @p event with its first @p from replaced by @p to. */
std::string
edit(std::string event, const std::string &from, const std::string &to)
{
    const size_t at = event.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        event.replace(at, from.size(), to);
    return event;
}

TEST(AnalysisIngest, AcceptsWellFormedExport)
{
    EXPECT_EQ(ingestDefect({kOpen, kInstant, kJob, kClose}), "accepted");
    // Timestamps only need to be monotone within one (pid, tid) track.
    EXPECT_EQ(ingestDefect({kOpen, kInstant, kJob,
                            edit(kInstant, "\"tid\":2", "\"tid\":3"),
                            kClose}),
              "accepted");
}

TEST(AnalysisIngest, RejectsEmptyTraceEvents)
{
    expectRejected({}, "traceEvents is empty");
}

TEST(AnalysisIngest, RejectsEventMissingNamePhOrPid)
{
    expectRejected({R"({"ph":"M","pid":1})"}, "missing string 'name'");
    expectRejected({R"({"name":"process_name","pid":1})"},
                   "missing string 'ph'");
    expectRejected({R"({"ph":"M","name":"process_name"})"}, "'pid'");
}

TEST(AnalysisIngest, RejectsTimedEventMissingTidOrTs)
{
    expectRejected({edit(kInstant, "\"tid\":2,", "")},
                   "missing numeric 'tid'");
    expectRejected({edit(kInstant, "\"ts\":1,", "")},
                   "missing numeric 'ts'");
}

TEST(AnalysisIngest, RejectsNegativeOrDecreasingTs)
{
    expectRejected({edit(kInstant, "\"ts\":1", "\"ts\":-1")},
                   "negative ts");
    expectRejected({kOpen, edit(kInstant, "\"ts\":1", "\"ts\":7"),
                    kInstant, kClose},
                   "ts 1.000 < previous 7.000");
}

TEST(AnalysisIngest, RejectsSpanWithoutNonNegativeDur)
{
    expectRejected({edit(kJob, "\"dur\":3", "\"dur\":-1")},
                   "X span needs dur >= 0");
    expectRejected({edit(kJob, "\"dur\":3,", "")},
                   "X span needs dur >= 0");
}

TEST(AnalysisIngest, RejectsJobSpanWithoutValidOutcome)
{
    const std::string defect =
        "JobStart span needs args.outcome in {ok,error,unfinished}";
    expectRejected({edit(kJob, ",\"outcome\":\"ok\"", "")}, defect);
    expectRejected({edit(kJob, "\"ok\"", "\"maybe\"")}, defect);
}

TEST(AnalysisIngest, RejectsEventWithoutIntegerSerial)
{
    const std::string defect = "needs a non-negative integer args.serial";
    expectRejected({edit(kInstant, ",\"args\":{\"serial\":1}", "")},
                   defect);
    expectRejected({edit(kInstant, "\"serial\":1", "\"serial\":1.5")},
                   defect);
    expectRejected({edit(kJob, "\"serial\":1000", "\"serial\":\"1000\"")},
                   defect);
    expectRejected({edit(kOpen, "\"serial\":1,", ""), kClose}, defect);
}

TEST(AnalysisIngest, RejectsUnpairedAsyncEvents)
{
    expectRejected({edit(kOpen, "\"id\":\"0x1\",", ""), kClose},
                   "async event needs a numeric or string 'id'");
    expectRejected({kInstant, kClose}, "'e' with no open 'b' for id");
    expectRejected({kOpen, kInstant}, "'b' event(s) never closed");
    // The key is (pid, cat, id): an "e" of another category does not
    // close the session.
    expectRejected({kOpen, edit(kClose, "\"cat\":\"session\"",
                                "\"cat\":\"other\"")},
                   "'e' with no open 'b' for id");
}

TEST(AnalysisIngest, RejectsSessionOpenWithoutOutcome)
{
    const std::string defect =
        "session 'b' needs a non-empty string args.outcome";
    expectRejected({edit(kOpen, ",\"outcome\":\"completed\"", ""),
                    kClose},
                   defect);
    expectRejected({edit(kOpen, "\"completed\"", "\"\""), kClose},
                   defect);
}

// ---------------------------------------------------------------------
// Exporter round trip

/** Build one deterministic session + one crypto track. */
void
fillTraces(SessionTrace &session, SessionTrace &crypto)
{
    session.record(TraceEventKind::ConnOpen, obs::traceSideEngine,
                   "clean", 0, 7);
    session.setTick(1);
    session.record(TraceEventKind::StateEnter, obs::traceSideServer,
                   "GetClientHello");
    session.setTick(2);
    session.record(TraceEventKind::Park, obs::traceSideEngine,
                   "rsa_decrypt", 3);
    session.setTick(5);
    session.record(TraceEventKind::Resume, obs::traceSideEngine,
                   "rsa_decrypt", 3);
    session.record(TraceEventKind::Complete, obs::traceSideEngine,
                   "full");
    session.noteOutcome("completed");

    crypto.record(TraceEventKind::JobStart, obs::traceSideEngine,
                  "decrypt", 3, 50);
    crypto.record(TraceEventKind::JobEnd, obs::traceSideEngine,
                  "decrypt", 0, 180);
    crypto.noteOutcome("pool-exit");
}

/** Export @p traces through ChromeTraceCollector and ingest them. */
Corpus
exportAndIngest(std::initializer_list<const SessionTrace *> traces)
{
    obs::ChromeTraceCollector collector;
    for (const SessionTrace *t : traces)
        collector.dump(*t);
    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    EXPECT_NE(mem, nullptr);
    if (!mem)
        return {};
    collector.write(mem);
    std::fclose(mem);
    const std::string text(buf, len);
    std::free(buf);
    return ingestChrome(parseJson(text));
}

TEST(AnalysisRoundTrip, ChromeExportIngestKeepsHistory)
{
    SessionTrace session(7, 0, 64);
    SessionTrace crypto(1000, obs::cryptoTrackBase, 64);
    fillTraces(session, crypto);
    const Corpus corpus = exportAndIngest({&session, &crypto});

    // Sessions come back sorted by (track, serial).
    const SessionTrace *sources[] = {&session, &crypto};
    ASSERT_EQ(corpus.sessions.size(), 2u);
    EXPECT_EQ(corpus.sessionCount(), 1u); // crypto track excluded
    for (size_t s = 0; s < 2; ++s) {
        const SessionTrace &src = *sources[s];
        const SessionRecord &rec = corpus.sessions[s];
        EXPECT_EQ(rec.serial, src.serial());
        EXPECT_EQ(rec.track, src.track());
        EXPECT_EQ(rec.outcome, src.outcome());
        const std::vector<obs::TraceEvent> events = src.events();
        ASSERT_EQ(rec.events.size(), events.size()) << "session " << s;
        for (size_t k = 0; k < events.size(); ++k) {
            EXPECT_EQ(rec.events[k].kind,
                      obs::traceEventKindName(events[k].kind))
                << "session " << s << " event " << k;
            EXPECT_EQ(rec.events[k].label,
                      events[k].label ? events[k].label : "");
            EXPECT_EQ(rec.events[k].code, events[k].code)
                << "session " << s << " event " << k << " ("
                << rec.events[k].kind << ")";
        }
    }
}

// ---------------------------------------------------------------------
// Pass determinism

TEST(AnalysisPasses, SameCorpusSameReport)
{
    SessionTrace session(7, 0, 64);
    SessionTrace crypto(1000, obs::cryptoTrackBase, 64);
    fillTraces(session, crypto);
    session.record(TraceEventKind::AlertSend, obs::traceSideServer,
                   "handshake_failure", 40);
    session.noteOutcome("fatal");
    const Corpus corpus = exportAndIngest({&session, &crypto});
    PassRegistry registry = makeBuiltinRegistry();
    ASSERT_GE(registry.all().size(), 5u);

    auto render = [&] {
        Report report;
        for (const Pass *p : registry.all())
            p->run(corpus, report);
        return report.render();
    };
    const std::string first = render();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, render());

    // The interesting attributions actually appear.
    EXPECT_NE(first.find("park:rsa_decrypt"), std::string::npos);
    EXPECT_NE(first.find("class new_full"), std::string::npos);
    EXPECT_NE(first.find("outcome=fatal"), std::string::npos);
}

// ---------------------------------------------------------------------
// Bench artifact check

// A bench_serve_throughput --smoke artifact, lists trimmed.
const std::string kThroughputDoc = R"({
  "bench": "serve_throughput", "cycle_hz": 2099986655, "smoke": true,
  "workers": 1,
  "wire_identity": [{"suite": "RSA_3DES_EDE_CBC_SHA", "identical": true}],
  "steady_state": [{"suite": "RSA_3DES_EDE_CBC_SHA", "records": 64,
                    "scratch_grows": 0, "pending_spills": 0,
                    "steady_ok": true}],
  "results": [
    {"record_bytes": 1024,
     "record_layer": {"records_per_sec": 62187, "mb_per_sec": 63.68},
     "serve_engine": {"bulk_bytes_per_conn": 65536,
                      "elapsed_sec": 0.013,
                      "records_per_sec_per_worker": 20152,
                      "mb_per_sec_per_worker": 20.64,
                      "completed_ok": true}},
    {"record_bytes": 16384,
     "record_layer": {"records_per_sec": 9120, "mb_per_sec": 149.4},
     "serve_engine": {"bulk_bytes_per_conn": 65536,
                      "elapsed_sec": 0.004,
                      "records_per_sec_per_worker": 4310,
                      "mb_per_sec_per_worker": 70.6,
                      "completed_ok": true}}
  ],
  "gate": {"wire_identical": true, "steady_state_zero": true,
           "engine_completed": true, "pass": true}
})";

/** checkBench over kThroughputDoc with one edit, defects joined. */
std::string
checkDefects(const std::string &from = {}, const std::string &to = {})
{
    std::string out;
    for (const std::string &d :
         checkBench(from.empty() ? kThroughputDoc
                                 : edit(kThroughputDoc, from, to)))
        out += d + "\n";
    return out;
}

TEST(AnalysisCheck, AcceptsSmokeThroughputArtifact)
{
    EXPECT_EQ(checkDefects(), "");
}

TEST(AnalysisCheck, RejectsFalseGate)
{
    EXPECT_EQ(checkDefects("\"engine_completed\": true",
                           "\"engine_completed\": false"),
              "gate gate.engine_completed is false\n");
}

TEST(AnalysisCheck, RejectsNonBoolGate)
{
    EXPECT_EQ(checkDefects("\"wire_identical\": true",
                           "\"wire_identical\": 1"),
              "gate gate.wire_identical is not a bool\n");
}

TEST(AnalysisCheck, RejectsMissingRequiredPath)
{
    EXPECT_EQ(checkDefects("\"mb_per_sec\": 149.4", "\"mbps\": 149.4"),
              "results.*.record_layer.mb_per_sec: missing "
              "'mb_per_sec'\n");
    // A missing gate is reported as a gate defect.
    EXPECT_EQ(checkDefects(", \"pass\": true", ""),
              "gate gate.pass: missing 'pass'\n");
}

TEST(AnalysisCheck, RejectsWildcardOverEmptyList)
{
    EXPECT_EQ(checkDefects("\"wire_identity\": [",
                           "\"wire_identity\": [], \"was\": ["),
              "wire_identity.*.identical: expected non-empty list\n");
}

TEST(AnalysisCheck, RejectsNonFiniteNumbers)
{
    // The literal never parses; an overflowing exponent parses to inf.
    EXPECT_NE(checkDefects("20.64", "NaN").find("non-finite literal"),
              std::string::npos);
    EXPECT_EQ(checkDefects("20.64", "1e999"),
              "results.*.serve_engine.mb_per_sec_per_worker: non-finite "
              "number\n");
}

TEST(AnalysisCheck, RejectsUnknownBenchId)
{
    EXPECT_EQ(checkDefects("\"serve_throughput\"", "\"serve_turbo\""),
              "unknown bench id \"serve_turbo\"\n");
}

// ---------------------------------------------------------------------
// Bench regression diff

TEST(AnalysisDiff, FlagsInjectedGateRegression)
{
    Json oldDoc = parseJson(
        "{\"gate\":{\"pass\":true,\"all_accounted\":true},"
        "\"results\":[{\"goodput\":100.0},{\"goodput\":90.0}]}");
    Json newDoc = parseJson(
        "{\"gate\":{\"pass\":false},"
        "\"results\":[{\"goodput\":40.0},{\"goodput\":89.0}]}");

    Report report;
    DiffResult r = diffBench(oldDoc, newDoc, 25.0, report);
    EXPECT_EQ(r.gateRegressions, 1); // pass true -> false
    EXPECT_EQ(r.missingPaths, 1);    // all_accounted vanished
    EXPECT_EQ(r.numericDeltas, 1);   // -60% goodput; -1.1% is below
    EXPECT_TRUE(r.failed());
    const std::string text = report.render();
    EXPECT_NE(text.find("GATE REGRESSION gate.pass"),
              std::string::npos);
    EXPECT_NE(text.find("MISSING gate.all_accounted"),
              std::string::npos);

    // Identical docs diff clean.
    Report clean;
    DiffResult same = diffBench(oldDoc, oldDoc, 25.0, clean);
    EXPECT_FALSE(same.failed());
    EXPECT_EQ(same.numericDeltas, 0);
}

// ---------------------------------------------------------------------
// Outcome-keyed sampling

TEST(AnalysisSampling, PolicyKeepsFailuresDecaysCompleted)
{
    TraceSampling off{0, false};
    EXPECT_FALSE(off.shouldRecord(0));

    TraceSampling plain{4, false};
    EXPECT_TRUE(plain.shouldRecord(0));
    EXPECT_FALSE(plain.shouldRecord(1));

    TraceSampling keyed{4, true};
    for (uint64_t s = 0; s < 16; ++s) {
        EXPECT_TRUE(keyed.shouldRecord(s));
        EXPECT_TRUE(keyed.shouldDump(s, "fatal"));
        EXPECT_TRUE(keyed.shouldDump(s, "timeout"));
        EXPECT_EQ(keyed.shouldDump(s, "completed"), s % 4 == 0);
    }
    EXPECT_TRUE(TraceSampling::isFailure("peer-fatal"));
    EXPECT_FALSE(TraceSampling::isFailure("completed"));
}

/** Counts dumped traces by outcome. */
struct OutcomeSink final : obs::TraceSink
{
    std::mutex m;
    std::vector<std::pair<uint64_t, std::string>> dumps;

    void
    dump(const SessionTrace &trace) override
    {
        std::lock_guard<std::mutex> lock(m);
        dumps.emplace_back(trace.serial(), trace.outcome());
    }
};

TEST(AnalysisSampling, FailedSessionsSurviveOneInNSampling)
{
    // Half the records corrupted: most sessions die. Under plain 1-in-8
    // sampling nearly all of those deaths would be unobserved; with
    // traceKeepFailures every failure must reach the sink.
    const uint64_t seed = 0xfa11ed;
    ssl::FaultPlan plan;
    plan.corruptRate = 0.5;
    plan.seed = seed;

    OutcomeSink sink;
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.connectionsPerWorker = 32;
    cfg.concurrentPerWorker = 4;
    cfg.certificate = &test::testServerCert();
    cfg.privateKey = test::testKey1024().priv;
    cfg.seed = seed;
    cfg.faultPlan = &plan;
    cfg.tolerateFailures = true;
    cfg.handshakeDeadlineTicks = 256;
    cfg.idleDeadlineTicks = 256;
    cfg.traceSampleEvery = 8;
    cfg.traceKeepFailures = true;
    cfg.traceSink = &sink;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();

    const uint64_t failures =
        stats.failedHandshakes() + stats.timedOutSessions();
    const uint64_t completed =
        stats.fullHandshakes() + stats.resumedHandshakes();
    ASSERT_GT(failures, 0u) << "fault plan produced no failures";

    uint64_t dumpedFailures = 0, dumpedCompleted = 0;
    for (const auto &[serial, outcome] : sink.dumps) {
        if (outcome == "completed")
            ++dumpedCompleted;
        else if (obs::TraceSampling::isFailure(outcome))
            ++dumpedFailures;
    }
    // EVERY failure dumped a trace...
    EXPECT_EQ(dumpedFailures, failures);
    // ...while completed sessions decayed to the 1-in-8 rate (the
    // exact count depends on which serials completed; it can only be
    // a strict subset once more than 8 sessions complete).
    if (completed > 8)
        EXPECT_LT(dumpedCompleted, completed);
    for (const auto &[serial, outcome] : sink.dumps)
        if (outcome == "completed")
            EXPECT_EQ(serial % 8, 0u)
                << "completed serial " << serial
                << " escaped the decay";
}

} // namespace
