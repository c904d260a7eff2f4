/**
 * @file
 * Telemetry subsystem tests: histogram geometry and percentile
 * accuracy, metrics-registry sharding and the disabled fast path,
 * session trace rings, trace export well-formedness, the chaos flight
 * recorder (a forced fault failure dumps a trace naming the fault and
 * the resulting alert), the PerfContext → registry bridge, the
 * pluggable log sink and JsonWriter escaping.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "../bench/common.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf/probe.hh"
#include "serve/engine.hh"
#include "ssl/client.hh"
#include "ssl/faultbio.hh"
#include "ssl/server.hh"
#include "testkeys.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using obs::HistogramLayout;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::SessionTrace;
using obs::TraceEvent;
using obs::TraceEventKind;

uint64_t
chaosSeed()
{
    if (const char *env = std::getenv("SSLA_CHAOS_SEED"))
        return std::strtoull(env, nullptr, 0);
    return 0x5eed0;
}

// ---------------------------------------------------------------------
// Histogram geometry

TEST(ObsHistogram, BucketBoundariesPowersOfTwo)
{
    // Values below linearMax get exact unit-width buckets.
    for (uint64_t v = 0; v < HistogramLayout::linearMax; ++v) {
        size_t i = HistogramLayout::bucketIndex(v);
        EXPECT_EQ(i, v);
        EXPECT_EQ(HistogramLayout::lowerBound(i), v);
        EXPECT_EQ(HistogramLayout::upperBound(i), v + 1);
    }
    // Every power of two is a bucket lower bound (exactly representable).
    for (unsigned k = HistogramLayout::subBits + 1; k < 63; ++k) {
        uint64_t v = 1ull << k;
        size_t i = HistogramLayout::bucketIndex(v);
        EXPECT_EQ(HistogramLayout::lowerBound(i), v)
            << "power 2^" << k;
        EXPECT_LT(v, HistogramLayout::upperBound(i));
    }
    // Index is monotone and every value lands inside its own bucket.
    Xoshiro256 rng(0xb0b);
    size_t prev = 0;
    uint64_t prev_v = 0;
    for (int n = 0; n < 10000; ++n) {
        uint64_t v = rng.next() >> (rng.next() % 60);
        size_t i = HistogramLayout::bucketIndex(v);
        EXPECT_GE(v, HistogramLayout::lowerBound(i));
        EXPECT_LT(v, HistogramLayout::upperBound(i));
        if (v >= prev_v) {
            EXPECT_GE(i, prev);
        }
        prev = i;
        prev_v = v;
    }
    // Relative bucket width beyond the linear range is <= 1/32.
    for (size_t i = HistogramLayout::linearMax;
         i < HistogramLayout::bucketCount; ++i) {
        uint64_t lo = HistogramLayout::lowerBound(i);
        uint64_t hi = HistogramLayout::upperBound(i);
        if (hi <= lo || hi == ~uint64_t(0))
            continue; // saturated top bucket
        EXPECT_LE(static_cast<double>(hi - lo),
                  static_cast<double>(lo) / HistogramLayout::subCount +
                      1.0)
            << "bucket " << i;
    }
}

TEST(ObsHistogram, PercentileOracle)
{
    MetricsRegistry reg;
    obs::Histogram h = reg.histogram("oracle");
    Xoshiro256 rng(0x0c1e);
    std::vector<uint64_t> values;
    values.reserve(10000);
    for (int n = 0; n < 10000; ++n) {
        // Mixed magnitudes: exercise linear buckets and several octaves.
        uint64_t v = rng.next() % (1ull << (6 + rng.next() % 30));
        values.push_back(v);
        h.record(v);
    }
    std::sort(values.begin(), values.end());

    HistogramSnapshot snap = reg.snapshot().histogram("oracle");
    ASSERT_EQ(snap.count, values.size());
    EXPECT_EQ(snap.min, values.front());
    EXPECT_EQ(snap.max, values.back());

    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        size_t rank = static_cast<size_t>(p / 100.0 * values.size());
        if (rank >= values.size())
            rank = values.size() - 1;
        double oracle = static_cast<double>(values[rank]);
        double got = snap.percentile(p);
        // Interpolated percentile error is bounded by one bucket width
        // (<= ~3.2% relative); allow slack for rank-convention skew.
        EXPECT_NEAR(got, oracle, oracle * 0.05 + 2.0)
            << "p" << p;
    }
    EXPECT_EQ(snap.percentile(0), static_cast<double>(snap.min));
    EXPECT_EQ(snap.percentile(100), static_cast<double>(snap.max));
}

TEST(ObsHistogram, MergeEquivalence)
{
    MetricsRegistry reg;
    obs::Histogram ha = reg.histogram("a");
    obs::Histogram hb = reg.histogram("b");
    obs::Histogram hall = reg.histogram("all");
    Xoshiro256 rng(0x3e63e);
    for (int n = 0; n < 5000; ++n) {
        uint64_t v = rng.next() % 1000000;
        (n % 2 ? ha : hb).record(v);
        hall.record(v);
    }
    obs::MetricsSnapshot snap = reg.snapshot();
    HistogramSnapshot merged = snap.histogram("a");
    merged.merge(snap.histogram("b"));
    HistogramSnapshot all = snap.histogram("all");
    EXPECT_EQ(merged.count, all.count);
    EXPECT_EQ(merged.sum, all.sum);
    EXPECT_EQ(merged.min, all.min);
    EXPECT_EQ(merged.max, all.max);
    EXPECT_EQ(merged.firstBucket, all.firstBucket);
    EXPECT_EQ(merged.buckets, all.buckets);
}

/** @p h with every bucket of the layout, as snapshots once carried. */
HistogramSnapshot
denseForm(const HistogramSnapshot &h)
{
    HistogramSnapshot dense = h;
    dense.firstBucket = 0;
    dense.buckets.assign(HistogramLayout::bucketCount, 0);
    for (size_t i = 0; i < HistogramLayout::bucketCount; ++i)
        dense.buckets[i] = h.bucket(i);
    return dense;
}

/** Same samples: every statistic and every layout bucket agree. */
void
expectSameHistogram(const HistogramSnapshot &a, const HistogramSnapshot &b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    for (size_t i = 0; i < HistogramLayout::bucketCount; ++i)
        ASSERT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0})
        EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
}

TEST(ObsHistogram, SnapshotEndsAtLastNonEmptyBucket)
{
    MetricsRegistry reg;
    obs::Histogram h = reg.histogram("h");
    obs::Histogram other = reg.histogram("other");
    Xoshiro256 rng(0x7e1);
    for (int n = 0; n < 3000; ++n) {
        h.record(rng.next() % 50000);
        other.record(1000 + rng.next() % 4000000);
    }
    obs::MetricsSnapshot snap = reg.snapshot();
    HistogramSnapshot trimmed = snap.histogram("h");
    ASSERT_FALSE(trimmed.buckets.empty());
    EXPECT_EQ(trimmed.firstBucket + trimmed.buckets.size(),
              HistogramLayout::bucketIndex(trimmed.max) + 1);
    EXPECT_NE(trimmed.buckets.back(), 0u);
    EXPECT_LT(trimmed.buckets.size(), HistogramLayout::bucketCount);
    EXPECT_TRUE(snap.histogram("never").buckets.empty());

    // The snapshot also starts at its first non-empty bucket.
    HistogramSnapshot wide = snap.histogram("other");
    EXPECT_EQ(wide.firstBucket, HistogramLayout::bucketIndex(wide.min));
    EXPECT_GT(wide.firstBucket, 0u);
    EXPECT_NE(wide.buckets.front(), 0u);

    // The dense form the snapshot used to carry reads the same.
    HistogramSnapshot dense = denseForm(trimmed);
    expectSameHistogram(trimmed, dense);

    // Merges agree whichever side is short.
    HistogramSnapshot a = trimmed;
    a.merge(wide);
    HistogramSnapshot b = wide;
    b.merge(dense);
    expectSameHistogram(a, b);
}

TEST(ObsHistogram, MergeAndPercentileMatchDenseForm)
{
    // Snapshots over disjoint, nested and overlapping value ranges,
    // merged in both orders: the kept-range form must equal the dense
    // form bucket for bucket, and so percentile for percentile.
    MetricsRegistry reg;
    const struct
    {
        const char *name;
        uint64_t lo, span;
    } ranges[] = {{"low", 0, 40},          {"mid", 5000, 90000},
                  {"high", 1u << 30, 1u << 28}, {"nested", 20000, 100},
                  {"spanning", 10, 1u << 31}};
    Xoshiro256 rng(0xde45e);
    for (const auto &r : ranges) {
        obs::Histogram h = reg.histogram(r.name);
        for (int n = 0; n < 2000; ++n)
            h.record(r.lo + rng.next() % r.span);
    }
    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto &x : ranges) {
        for (const auto &y : ranges) {
            HistogramSnapshot kept = snap.histogram(x.name);
            kept.merge(snap.histogram(y.name));
            HistogramSnapshot dense = denseForm(snap.histogram(x.name));
            dense.merge(denseForm(snap.histogram(y.name)));
            SCOPED_TRACE(std::string(x.name) + " + " + y.name);
            expectSameHistogram(kept, dense);
            // Merging into an empty snapshot keeps the range as is.
            HistogramSnapshot empty;
            empty.merge(kept);
            expectSameHistogram(empty, dense);
        }
    }
}

TEST(ObsHistogram, ConcurrentHammer)
{
    MetricsRegistry reg;
    obs::Histogram h = reg.histogram("hammer");
    constexpr int kThreads = 8;
    constexpr int kPerThread = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int n = 0; n < kPerThread; ++n)
                h.record(static_cast<uint64_t>(t * kPerThread + n) %
                         4096);
        });
    for (auto &th : threads)
        th.join();
    HistogramSnapshot snap = reg.snapshot().histogram("hammer");
    EXPECT_EQ(snap.count,
              static_cast<uint64_t>(kThreads) * kPerThread);
    uint64_t bucket_total = 0;
    for (uint64_t b : snap.buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, snap.count);
}

// ---------------------------------------------------------------------
// Registry semantics

TEST(ObsRegistry, CountersAggregateAcrossThreads)
{
    MetricsRegistry reg;
    obs::Counter c = reg.counter("hits");
    // Same name → same metric, from any number of resolutions.
    obs::Counter c2 = reg.counter("hits");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&] {
            for (int n = 0; n < 10000; ++n)
                (n % 2 ? c : c2).inc();
        });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(reg.snapshot().counter("hits"), 40000u);
}

TEST(ObsRegistry, GaugeSetAndAdd)
{
    MetricsRegistry reg;
    obs::Gauge g = reg.gauge("depth");
    g.set(7);
    g.add(5);
    g.add(-12);
    EXPECT_EQ(reg.snapshot().gauges.at("depth"), 0);
    g.set(-3);
    EXPECT_EQ(reg.snapshot().gauges.at("depth"), -3);
}

TEST(ObsRegistry, DisabledIsSilent)
{
    MetricsRegistry reg;
    obs::Counter c = reg.counter("muted");
    obs::Histogram h = reg.histogram("muted_h");
    reg.setEnabled(false);
    c.inc(100);
    h.record(42);
    EXPECT_EQ(reg.snapshot().counter("muted"), 0u);
    EXPECT_EQ(reg.snapshot().histogram("muted_h").count, 0u);
    reg.setEnabled(true);
    c.inc(1);
    EXPECT_EQ(reg.snapshot().counter("muted"), 1u);
}

TEST(ObsRegistry, DefaultHandlesAreNoOps)
{
    obs::Counter c;
    obs::Gauge g;
    obs::Histogram h;
    EXPECT_FALSE(c.valid());
    c.inc();   // must not crash
    g.set(1);
    h.record(1);
}

// ---------------------------------------------------------------------
// Session traces

TEST(ObsTrace, RingKeepsNewestOnOverflow)
{
    SessionTrace trace(/*serial=*/9, /*track=*/0, /*capacity=*/4);
    for (uint16_t i = 0; i < 10; ++i)
        trace.record(TraceEventKind::StateEnter, obs::traceSideServer,
                     "s", i);
    EXPECT_EQ(trace.recorded(), 10u);
    EXPECT_EQ(trace.dropped(), 6u);
    std::vector<TraceEvent> events = trace.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-first, and the survivors are the LAST four recorded.
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].code, 6 + i);
}

TEST(ObsTrace, EndpointHandshakeIsTraced)
{
    ssl::BioPair wires;
    crypto::RandomPool pool(toBytes("obs-trace-test"));
    ssl::ServerConfig scfg;
    scfg.certificate = test::testServerCert();
    scfg.privateKey = test::testKey1024().priv;
    scfg.randomPool = &pool;
    ssl::ClientConfig ccfg;
    ccfg.randomPool = &pool;

    ssl::SslServer server(scfg, wires.serverEnd());
    ssl::SslClient client(ccfg, wires.clientEnd());

    MetricsRegistry reg;
    SessionTrace trace(1, 0, 256);
    ssl::EndpointObsBinding sb;
    sb.registry = &reg;
    sb.trace = &trace;
    sb.side = obs::traceSideServer;
    server.bindObservability(sb);
    ssl::EndpointObsBinding cb;
    cb.registry = &reg;
    cb.trace = &trace;
    cb.side = obs::traceSideClient;
    client.bindObservability(cb);

    ssl::runLockstep(client, server);

    size_t flights_sent = 0, flights_recv = 0, states = 0, done = 0;
    bool saw_client_hello = false;
    for (const TraceEvent &e : trace.events()) {
        switch (e.kind) {
          case TraceEventKind::FlightSend:
            ++flights_sent;
            break;
          case TraceEventKind::FlightRecv:
            ++flights_recv;
            if (e.label && std::string(e.label) == "ClientHello")
                saw_client_hello = true;
            break;
          case TraceEventKind::StateEnter:
            ++states;
            break;
          case TraceEventKind::HandshakeDone:
            ++done;
            break;
          default:
            break;
        }
        EXPECT_LE(e.side, obs::traceSideClient);
    }
    // A full handshake has at least 4 flights each way and both sides
    // signal completion.
    EXPECT_GE(flights_sent, 4u);
    EXPECT_GE(flights_recv, 4u);
    EXPECT_GE(states, 8u);
    EXPECT_EQ(done, 2u);
    EXPECT_TRUE(saw_client_hello);
    EXPECT_STREQ(trace.outcome(), "open");
}

// ---------------------------------------------------------------------
// Export

TEST(ObsExport, JsonEscape)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(obs::jsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
}

TEST(ObsExport, ChromeTraceDocumentShape)
{
    obs::ChromeTraceCollector collector;
    SessionTrace trace(0x42, /*track=*/3, 64);
    trace.record(TraceEventKind::ConnOpen, obs::traceSideEngine, "open");
    trace.record(TraceEventKind::StateEnter, obs::traceSideServer,
                 "GetClientHello", 1);
    trace.record(TraceEventKind::StateEnter, obs::traceSideServer,
                 "SendServerHello", 2);
    trace.record(TraceEventKind::AlertSend, obs::traceSideServer,
                 "handshake_failure", 40);
    trace.noteOutcome("fatal");
    collector.dump(trace);
    EXPECT_EQ(collector.traceCount(), 1u);

    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);
    collector.write(mem);
    std::fclose(mem);
    std::string doc(buf, len);
    std::free(buf);

    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos); // state span
    EXPECT_NE(doc.find("\"ph\":\"b\""), std::string::npos); // session open
    EXPECT_NE(doc.find("\"ph\":\"e\""), std::string::npos); // session end
    EXPECT_NE(doc.find("handshake_failure"), std::string::npos);
    EXPECT_NE(doc.find("\"fatal\""), std::string::npos);
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc[doc.size() - 2], '}'); // trailing newline after root
}

TEST(ObsExport, PrometheusTextExposition)
{
    MetricsRegistry reg;
    reg.counter("serve.park_events").inc(3);
    reg.gauge("pool.queue-depth").set(7);
    obs::Histogram h = reg.histogram("serve.handshake_cycles");
    for (uint64_t i = 1; i <= 100; ++i)
        h.record(i);

    const std::string text = obs::prometheusText(reg.snapshot());
    const auto npos = std::string::npos;

    // Counters: dots sanitized to underscores, _total suffix, typed.
    EXPECT_NE(text.find("# TYPE serve_park_events_total counter\n"),
              npos);
    EXPECT_NE(text.find("serve_park_events_total 3\n"), npos);
    // Gauges: dashes sanitized too, value verbatim.
    EXPECT_NE(text.find("# TYPE pool_queue_depth gauge\n"), npos);
    EXPECT_NE(text.find("pool_queue_depth 7\n"), npos);
    // Histograms render as summaries: three quantiles + sum + count.
    EXPECT_NE(text.find("# TYPE serve_handshake_cycles summary\n"),
              npos);
    EXPECT_NE(text.find("serve_handshake_cycles{quantile=\"0.5\"} "),
              npos);
    EXPECT_NE(text.find("serve_handshake_cycles{quantile=\"0.9\"} "),
              npos);
    EXPECT_NE(text.find("serve_handshake_cycles{quantile=\"0.99\"} "),
              npos);
    EXPECT_NE(text.find("serve_handshake_cycles_sum 5050\n"), npos);
    EXPECT_NE(text.find("serve_handshake_cycles_count 100\n"), npos);
    // Every original (dotted) name must be gone.
    EXPECT_EQ(text.find("serve.park_events"), npos);
    EXPECT_EQ(text.find("pool.queue-depth"), npos);

    // writePrometheusText streams the identical document.
    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);
    obs::writePrometheusText(mem, reg.snapshot());
    std::fclose(mem);
    EXPECT_EQ(std::string(buf, len), text);
    std::free(buf);
}

// ---------------------------------------------------------------------
// Flight recorder under chaos

/** Captures dumped traces verbatim for inspection. */
struct CaptureSink final : obs::TraceSink
{
    std::mutex m;
    std::vector<std::vector<TraceEvent>> dumps;
    std::vector<std::string> outcomes;

    void
    dump(const SessionTrace &trace) override
    {
        std::lock_guard<std::mutex> lock(m);
        dumps.push_back(trace.events());
        outcomes.push_back(trace.outcome());
    }
};

TEST(ChaosTrace, FlightRecorderNamesFaultAndAlert)
{
    const uint64_t seed = chaosSeed();
    ssl::FaultPlan plan;
    plan.corruptRate = 0.5; // every other record flipped: certain death
    plan.seed = seed;

    CaptureSink sink;
    MetricsRegistry reg;
    serve::ServeConfig cfg;
    cfg.workers = 1;
    cfg.connectionsPerWorker = 16;
    cfg.concurrentPerWorker = 4;
    cfg.certificate = &test::testServerCert();
    cfg.privateKey = test::testKey1024().priv;
    cfg.seed = seed;
    cfg.faultPlan = &plan;
    cfg.metrics = &reg;
    cfg.traceSampleEvery = 1;
    cfg.traceSink = &sink;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();

    // With a 50% corrupt rate essentially every session dies; each
    // death must have dumped its flight recorder.
    ASSERT_GT(stats.failedHandshakes() + stats.timedOutSessions(), 0u)
        << "seed " << seed;
    ASSERT_FALSE(sink.dumps.empty());

    // At least one dump names both the injected fault (with the record
    // index it hit) and the alert/teardown it caused — the post-mortem
    // the flight recorder exists for.
    bool found = false;
    for (const auto &events : sink.dumps) {
        bool fault = false, alert = false;
        for (const TraceEvent &e : events) {
            if (e.kind == TraceEventKind::FaultInjected &&
                e.label != nullptr)
                fault = true;
            if ((e.kind == TraceEventKind::AlertSend ||
                 e.kind == TraceEventKind::AlertRecv ||
                 e.kind == TraceEventKind::Teardown) &&
                e.label != nullptr)
                alert = true;
        }
        if (fault && alert) {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found) << "no dump pairs a fault with its alert (seed "
                       << seed << ")";
    // And the per-alert-code counters saw the same storm.
    uint64_t alert_counts = 0;
    for (const auto &[name, value] : stats.metrics.counters)
        if (name.rfind("alert.", 0) == 0)
            alert_counts += value;
    EXPECT_GT(alert_counts, 0u);
}

// ---------------------------------------------------------------------
// Engine metrics snapshot

TEST(ObsServe, MetricsSnapshotFromEngine)
{
    MetricsRegistry reg;
    serve::ServeConfig cfg;
    cfg.workers = 2;
    cfg.connectionsPerWorker = 8;
    cfg.concurrentPerWorker = 4;
    cfg.resumeFraction = 0.5;
    cfg.bulkBytes = 4096;
    cfg.recordBytes = 2048;
    cfg.certificate = &test::testServerCert();
    cfg.privateKey = test::testKey1024().priv;
    cfg.metrics = &reg;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();

    const obs::MetricsSnapshot &snap = stats.metrics;
    EXPECT_EQ(snap.counter("serve.full_handshakes") +
                  snap.counter("serve.resumed_handshakes"),
              16u);
    EXPECT_EQ(snap.counter("serve.full_handshakes"),
              stats.fullHandshakes());
    EXPECT_EQ(snap.counter("serve.resumed_handshakes"),
              stats.resumedHandshakes());
    EXPECT_EQ(snap.counter("serve.bulk_bytes"), stats.bulkBytesMoved());

    // Every completed handshake recorded one latency sample.
    HistogramSnapshot hs = snap.histogram("serve.handshake_cycles");
    EXPECT_EQ(hs.count, 16u);
    EXPECT_GT(hs.percentile(50), 0.0);
    EXPECT_LE(hs.percentile(50), hs.percentile(99));

    // Record layer and session cache reported through the same registry.
    EXPECT_GT(snap.counter("record.records_out"), 0u);
    EXPECT_GT(snap.counter("record.bytes_out"), 0u);
    EXPECT_GT(snap.counter("cache.stores"), 0u);

    // Per-worker perf contexts bridged in (RSA decrypt fires on every
    // full handshake).
    uint64_t perf_calls = 0;
    for (const auto &[name, value] : snap.counters)
        if (name.rfind("perf.", 0) == 0 &&
            name.find(".calls") != std::string::npos)
            perf_calls += value;
    EXPECT_GT(perf_calls, 0u);
}

TEST(ObsServe, CryptoPoolMetricsAndTraces)
{
    CaptureSink sink;
    MetricsRegistry reg;
    serve::CryptoPool pool(2);
    {
        serve::ServeConfig cfg;
        cfg.workers = 2;
        cfg.connectionsPerWorker = 4;
        cfg.concurrentPerWorker = 4;
        cfg.certificate = &test::testServerCert();
        cfg.privateKey = test::testKey1024().priv;
        cfg.cryptoPool = &pool;
        cfg.metrics = &reg;
        cfg.traceSampleEvery = 1;
        cfg.traceSink = &sink;
        serve::ServeEngine engine(std::move(cfg));
        engine.run();
    }
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("cryptopool.completed"),
              pool.completedJobs());
    EXPECT_GT(snap.histogram("cryptopool.service_cycles").count, 0u);
    EXPECT_GT(snap.histogram("cryptopool.queue_wait_cycles").count, 0u);
}

// ---------------------------------------------------------------------
// PerfContext bridge

TEST(PerfBridge, PublishToRegistry)
{
    perf::PerfContext ctx;
    ctx.add("rsa_private", 1000, 800);
    ctx.add("rsa_private", 500, 400);
    ctx.add("sha1", 10, 10);

    MetricsRegistry reg;
    ctx.publishTo(reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("perf.rsa_private.inclusive_cycles"), 1500u);
    EXPECT_EQ(snap.counter("perf.rsa_private.exclusive_cycles"), 1200u);
    EXPECT_EQ(snap.counter("perf.rsa_private.calls"), 2u);
    EXPECT_EQ(snap.counter("perf.sha1.calls"), 1u);

    // Publishing again accumulates (per-worker contexts add up).
    ctx.publishTo(reg);
    EXPECT_EQ(reg.snapshot().counter("perf.rsa_private.calls"), 4u);
}

// ---------------------------------------------------------------------
// Log sink

TEST(LogSink, CustomSinkSeesEverything)
{
    std::vector<std::pair<LogLevel, std::string>> seen;
    LogSink prev = setLogSink([&](LogLevel level, const std::string &m) {
        seen.emplace_back(level, m);
    });
    warn("telemetry-test-warning");
    inform("telemetry-test-info");
    setLogSink(std::move(prev));
    // After restore the custom sink is gone.
    warn("not-captured");

    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, LogLevel::Warn);
    EXPECT_NE(seen[0].second.find("telemetry-test-warning"),
              std::string::npos);
    EXPECT_EQ(seen[1].first, LogLevel::Inform);
}

// ---------------------------------------------------------------------
// Bench JSON writer escaping

TEST(JsonWriter, EscapesControlAndQuote)
{
    char *buf = nullptr;
    size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);
    {
        bench::JsonWriter j(mem);
        j.beginObject();
        j.field("k", "a\"b\\c\nd\te\x01"
                     "f");
        j.endObject();
    }
    std::fclose(mem);
    std::string doc(buf, len);
    std::free(buf);

    EXPECT_NE(doc.find("a\\\"b\\\\c\\nd\\te\\u0001f"),
              std::string::npos)
        << doc;
    // No raw control bytes survive.
    for (char c : doc)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n');
}

} // anonymous namespace
