/**
 * @file
 * Multi-core serving scalability sweep (extension of the paper's
 * single-connection anatomy to a terminating server's concurrency
 * axis).
 *
 * A fixed pool of connections (full handshakes, a fraction resumed,
 * each streaming some application data) is completed by 1/2/4/8
 * ServeEngine workers, first with the synchronous in-handshake RSA
 * decrypt and then with the decrypt offloaded to a CryptoPool (one
 * crypto thread per worker), which lets a worker service its other
 * sessions while a handshake is parked at ClientKeyExchange.
 *
 * Aggregate full-handshakes/sec, resumed-handshakes/sec and bulk MB/s
 * are reported per configuration as a JSON document (BENCH_scale.json
 * schema — see EXPERIMENTS.md). Speedups are judged against
 * min(workers, hw_cores): on a single-core host every configuration
 * honestly reports ~1x and the exit code gates only correctness (every
 * connection completes, handshake counts add up), never raw speedup,
 * so CI is meaningful on any machine shape.
 *
 *   ./bench_serve_scale [--smoke] [--trace FILE]
 *
 * --trace FILE additionally runs a small fully-sampled workload with
 * per-session tracing on and writes the Chrome trace_event JSON (load
 * it in Perfetto, or feed it to tools/ssla_analyze, which validates
 * it, in CI).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common.hh"
#include "obs/export.hh"
#include "serve/engine.hh"

using namespace ssla;
using namespace ssla::bench;

namespace
{

/** Cycle count → microseconds, for the handshake-latency fields. */
double
cyclesToUs(double cycles)
{
    return cycles / cycleHz() * 1e6;
}

struct RunResult
{
    size_t workers = 0;
    bool offload = false;
    size_t cryptoThreads = 0;
    serve::ServeStats stats;
    uint64_t expectedConnections = 0;
    uint64_t poolCompletedJobs = 0;

    bool
    completedOk() const
    {
        return stats.fullHandshakes() + stats.resumedHandshakes() ==
               expectedConnections;
    }
};

RunResult
runOnce(size_t workers, size_t total_connections, double resume_fraction,
        size_t bulk_bytes, const pki::Certificate &cert,
        const std::shared_ptr<crypto::RsaPrivateKey> &key, bool offload,
        bool metrics_enabled = true,
        ssl::CipherSuiteId suite =
            ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA)
{
    // Fresh registry per run: the handshake-latency percentiles in the
    // emitted JSON belong to this cell alone, not the whole sweep.
    obs::MetricsRegistry registry;

    serve::ServeConfig cfg;
    cfg.suite = suite;
    cfg.workers = workers;
    cfg.connectionsPerWorker = total_connections / workers;
    cfg.concurrentPerWorker =
        std::min<size_t>(8, cfg.connectionsPerWorker);
    cfg.resumeFraction = resume_fraction;
    cfg.bulkBytes = bulk_bytes;
    cfg.recordBytes = 4096;
    cfg.certificate = &cert;
    cfg.privateKey = key;
    cfg.seed = 0x5ca1e ^ (workers << 8) ^ (offload ? 1 : 0);
    cfg.metrics = &registry;
    cfg.metricsEnabled = metrics_enabled;

    RunResult r;
    r.workers = workers;
    r.offload = offload;
    r.expectedConnections = cfg.connectionsPerWorker * workers;

    if (offload) {
        r.cryptoThreads = workers;
        serve::CryptoPool pool(r.cryptoThreads);
        cfg.cryptoPool = &pool;
        serve::ServeEngine engine(std::move(cfg));
        r.stats = engine.run();
        r.poolCompletedJobs = pool.completedJobs();
    } else {
        serve::ServeEngine engine(std::move(cfg));
        r.stats = engine.run();
    }
    return r;
}

/**
 * Small fully-sampled traced run: every session gets a flight recorder
 * and every trace (plus the crypto threads' job tracks) is dumped into
 * a ChromeTraceCollector. Returns the number of captured traces.
 */
size_t
runTraced(const pki::Certificate &cert,
          const std::shared_ptr<crypto::RsaPrivateKey> &key,
          const std::string &path)
{
    obs::ChromeTraceCollector collector;
    obs::MetricsRegistry registry;
    {
        serve::CryptoPool pool(2);
        serve::ServeConfig cfg;
        cfg.workers = 2;
        cfg.connectionsPerWorker = 4;
        cfg.concurrentPerWorker = 4;
        cfg.resumeFraction = 0.5;
        cfg.bulkBytes = 8192;
        cfg.recordBytes = 4096;
        cfg.certificate = &cert;
        cfg.privateKey = key;
        cfg.seed = 0x77ace;
        cfg.cryptoPool = &pool;
        cfg.metrics = &registry;
        cfg.traceSampleEvery = 1;
        cfg.traceSink = &collector;
        cfg.traceDumpAll = true;
        serve::ServeEngine engine(std::move(cfg));
        engine.run();
        // Pool destruction (scope exit) dumps the crypto threads'
        // job tracks into the collector before we serialize.
    }
    if (!collector.writeFile(path))
        return 0;
    return collector.traceCount();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc)
            trace_path = argv[++i];
    }

    warmUpCpu();

    const std::vector<size_t> worker_sweep =
        smoke ? std::vector<size_t>{1, 2}
              : std::vector<size_t>{1, 2, 4, 8};
    const size_t total_connections = smoke ? 8 : 96;
    const double resume_fraction = 0.4;
    const size_t bulk_bytes = smoke ? 16384 : 32768;
    const unsigned hw_cores =
        std::max(1u, std::thread::hardware_concurrency());

    const auto &key = benchKey(1024);
    pki::CertificateInfo info;
    info.serial = 1;
    info.issuer = "Bench CA";
    info.subject = "bench.server";
    info.notBefore = 0;
    info.notAfter = ~uint64_t(0);
    info.publicKey = key.pub;
    pki::Certificate cert = pki::Certificate::issue(info, *key.priv);

    std::vector<RunResult> runs;
    for (size_t w : worker_sweep)
        for (bool offload : {false, true})
            runs.push_back(runOnce(w, total_connections,
                                   resume_fraction, bulk_bytes, cert,
                                   key.priv, offload));

    // Baselines for speedup: the 1-worker run of the same offload mode.
    auto baseline = [&](bool offload) -> const RunResult * {
        for (const auto &r : runs)
            if (r.workers == 1 && r.offload == offload)
                return &r;
        return nullptr;
    };
    // Total connection completion rate: the mode-independent yardstick
    // (the full/resumed mix varies with scheduling, since a connection
    // can only resume a session that already completed when it was
    // created).
    auto connRate = [](const RunResult &r) {
        return r.stats.elapsedSeconds > 0
                   ? (r.stats.fullHandshakes() +
                      r.stats.resumedHandshakes()) /
                         r.stats.elapsedSeconds
                   : 0.0;
    };

    bool all_completed = true;
    JsonWriter j;
    j.beginObject();
    j.field("bench", "serve_scale");
    j.field("smoke", smoke);
    j.field("hw_cores", static_cast<uint64_t>(hw_cores));
    j.field("total_connections", static_cast<uint64_t>(total_connections));
    j.field("resume_fraction", resume_fraction, 2);
    j.field("bulk_bytes_per_conn", static_cast<uint64_t>(bulk_bytes));
    j.beginArray("workers_swept");
    for (size_t w : worker_sweep)
        j.element(static_cast<uint64_t>(w));
    j.endArray();

    j.beginArray("results");
    for (const auto &r : runs) {
        all_completed = all_completed && r.completedOk();
        const RunResult *base = baseline(r.offload);
        double speedup = (base && connRate(*base) > 0)
                             ? connRate(r) / connRate(*base)
                             : 0.0;
        j.beginObject();
        j.field("workers", static_cast<uint64_t>(r.workers));
        j.field("offload", r.offload);
        j.field("crypto_threads", static_cast<uint64_t>(r.cryptoThreads));
        j.field("full_handshakes", r.stats.fullHandshakes());
        j.field("resumed_handshakes", r.stats.resumedHandshakes());
        j.field("park_events", r.stats.parkEvents());
        j.field("park_events_decrypt", r.stats.parkEventsDecrypt());
        j.field("park_events_sign", r.stats.parkEventsSign());
        j.field("elapsed_sec", r.stats.elapsedSeconds);
        j.field("full_hs_per_sec", r.stats.fullHandshakesPerSec(), 1);
        j.field("resumed_hs_per_sec", r.stats.resumedHandshakesPerSec(),
                1);
        j.field("bulk_mb_per_sec", r.stats.bulkMBPerSec(), 2);
        j.field("connections_per_sec", connRate(r), 1);
        // Per-cell handshake-latency distribution out of the run's own
        // metrics registry (creation to both-sides-done, in wall µs).
        const obs::HistogramSnapshot hs =
            r.stats.metrics.histogram("serve.handshake_cycles");
        j.field("hs_count", hs.count);
        j.field("hs_p50_us", cyclesToUs(hs.percentile(50)), 1);
        j.field("hs_p90_us", cyclesToUs(hs.percentile(90)), 1);
        j.field("hs_p99_us", cyclesToUs(hs.percentile(99)), 1);
        j.field("speedup_vs_1w", speedup, 2);
        // Perfect scaling is capped by the physical core count: the
        // honest yardstick for this configuration.
        j.field("ideal_speedup",
                static_cast<double>(std::min<size_t>(r.workers, hw_cores)),
                1);
        j.field("completed_ok", r.completedOk());
        j.endObject();
    }
    j.endArray();

    // Offload-vs-sync handshake-rate ratio at equal worker counts: the
    // Section 6.2 asynchronous-engine claim at serving scale. Only
    // meaningful where spare cores exist to run the pool; reported
    // everywhere, gated nowhere.
    j.beginArray("offload_vs_sync");
    for (size_t w : worker_sweep) {
        const RunResult *sync_run = nullptr, *off_run = nullptr;
        for (const auto &r : runs) {
            if (r.workers != w)
                continue;
            (r.offload ? off_run : sync_run) = &r;
        }
        if (!sync_run || !off_run)
            continue;
        double ratio = connRate(*sync_run) > 0
                           ? connRate(*off_run) / connRate(*sync_run)
                           : 0.0;
        j.beginObject();
        j.field("workers", static_cast<uint64_t>(w));
        j.field("conn_rate_ratio", ratio, 2);
        j.field("park_events", off_run->stats.parkEvents());
        j.endObject();
    }
    j.endArray();

    // DHE_RSA cell: the same workload negotiating an ephemeral-DH
    // suite, sync vs offloaded. With the CryptoPool attached the
    // server submits the *ServerKeyExchange signature* (park reason
    // "rsa_sign") on every full handshake, and nothing parks at the
    // pre-master step (DHE's client key exchange needs no RSA private
    // op) — the reverse of the RSA cell's decrypt-only parking. The
    // gate asserts the deterministic invariants: every full handshake
    // routed exactly one sign job through the pool, and any park a
    // worker observed was a sign park. The observed park *count* is
    // reported but not gated — on a busy or single-core host the
    // crypto thread can finish the signature before the worker's next
    // sweep, so the worker legitimately never sees the job pending.
    const size_t dhe_workers = std::min<size_t>(2, hw_cores);
    bool dhe_ok = true;
    j.beginArray("dhe_rsa");
    for (bool offload : {false, true}) {
        RunResult r = runOnce(
            dhe_workers, total_connections, resume_fraction, bulk_bytes,
            cert, key.priv, offload, /*metrics_enabled=*/true,
            ssl::CipherSuiteId::DHE_RSA_3DES_EDE_CBC_SHA);
        const bool signs_ok =
            !offload ||
            (r.poolCompletedJobs == r.stats.fullHandshakes() &&
             r.stats.parkEventsDecrypt() == 0 &&
             r.stats.parkEventsSign() == r.stats.parkEvents());
        dhe_ok = dhe_ok && r.completedOk() && signs_ok;
        j.beginObject();
        j.field("workers", static_cast<uint64_t>(dhe_workers));
        j.field("offload", offload);
        j.field("full_handshakes", r.stats.fullHandshakes());
        j.field("resumed_handshakes", r.stats.resumedHandshakes());
        j.field("park_events", r.stats.parkEvents());
        j.field("park_events_decrypt", r.stats.parkEventsDecrypt());
        j.field("park_events_sign", r.stats.parkEventsSign());
        j.field("pool_sign_jobs", r.poolCompletedJobs);
        j.field("connections_per_sec", connRate(r), 1);
        j.field("completed_ok", r.completedOk());
        j.endObject();
    }
    j.endArray();

    // Registry overhead A/B: the identical workload with the metrics
    // registry enabled vs disabled (every handle op reduced to one
    // relaxed load + branch). Design target is <=3% overhead. One pair
    // of smoke-sized runs is too noisy to gate on, so the A/B runs
    // several pairs, alternating which side goes first, and gates the
    // ratio of the medians; the loose 25% bound absorbs a busy CI host.
    const size_t ab_workers = std::min<size_t>(2, hw_cores);
    const int ab_repeats = 9;
    auto run_ab = [&](bool enabled) {
        return runOnce(ab_workers, total_connections, resume_fraction,
                       bulk_bytes, cert, key.priv, /*offload=*/false,
                       enabled)
            .stats.elapsedSeconds;
    };
    std::vector<double> on_sec, off_sec, pair_ratio;
    for (int i = 0; i < ab_repeats; ++i) {
        bool on_first = i % 2 == 0;
        double first = run_ab(on_first);
        double second = run_ab(!on_first);
        on_sec.push_back(on_first ? first : second);
        off_sec.push_back(on_first ? second : first);
        pair_ratio.push_back(off_sec.back() > 0
                                 ? on_sec.back() / off_sec.back()
                                 : 0.0);
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    const double enabled_sec = median(on_sec);
    const double disabled_sec = median(off_sec);
    const double overhead_ratio =
        disabled_sec > 0 ? enabled_sec / disabled_sec : 0.0;
    const bool overhead_ok = overhead_ratio <= 1.25;
    j.beginObject("metrics_overhead");
    j.field("workers", static_cast<uint64_t>(ab_workers));
    j.field("repeats", static_cast<uint64_t>(ab_repeats));
    j.field("enabled_sec", enabled_sec);
    j.field("disabled_sec", disabled_sec);
    j.field("overhead_ratio", overhead_ratio, 3);
    j.field("ratio_min",
            *std::min_element(pair_ratio.begin(), pair_ratio.end()), 3);
    j.field("ratio_max",
            *std::max_element(pair_ratio.begin(), pair_ratio.end()), 3);
    j.field("target_ratio", 1.03, 2);
    j.field("gate_ratio", 1.25, 2);
    j.field("ok", overhead_ok);
    j.endObject();

    if (!trace_path.empty()) {
        size_t traced = runTraced(cert, key.priv, trace_path);
        j.beginObject("trace");
        j.field("file", trace_path);
        j.field("sessions", static_cast<uint64_t>(traced));
        j.endObject();
        if (traced == 0) {
            std::fprintf(stderr,
                         "FAIL: traced run captured no sessions or "
                         "could not write %s\n",
                         trace_path.c_str());
            j.field("all_completed", false);
            j.endObject();
            return 1;
        }
    }

    j.field("all_completed", all_completed);
    j.endObject();

    if (!all_completed) {
        std::fprintf(stderr,
                     "FAIL: a run lost connections (handshake counts "
                     "do not add up to the configured total)\n");
        return 1;
    }
    if (!dhe_ok) {
        std::fprintf(stderr,
                     "FAIL: DHE_RSA cell lost connections, or the "
                     "offloaded run did not route one sign job per "
                     "full handshake through the CryptoPool, or a "
                     "session decrypt-parked under a DHE suite\n");
        return 1;
    }
    if (smoke && !overhead_ok) {
        std::fprintf(stderr,
                     "FAIL: metrics registry overhead ratio of medians "
                     "%.3f exceeds the 1.25 smoke gate (target 1.03)\n",
                     overhead_ratio);
        return 1;
    }
    return 0;
}
