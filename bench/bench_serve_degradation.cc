/**
 * @file
 * Graceful-degradation sweep: serving goodput as a function of channel
 * fault rate and crypto-pool saturation.
 *
 * A hardened terminating server should degrade smoothly: as the fault
 * rate rises, goodput (completed handshakes/sec) declines monotonically
 * toward zero while every session still reaches a terminal outcome —
 * completed, alerted, or timed out. A cliff (goodput collapsing to
 * zero at a small fault rate, or sessions leaking) indicates the
 * deadline/backpressure machinery is broken. The crypto-pool axis runs
 * the same sweep with the RSA offload saturated under each overload
 * policy: Reject sheds whole sessions fast, Shed degrades to the
 * synchronous baseline, and neither may lose accounting.
 *
 * Emits the BENCH_degradation.json schema (see EXPERIMENTS.md). The
 * exit code gates only correctness — termination accounting and the
 * zero-fault sanity baseline — never absolute rates, so CI is
 * meaningful on any machine shape.
 *
 *   ./bench_serve_degradation [--smoke] [--trace FILE]
 *
 * --trace FILE additionally runs a small fully-sampled faulted
 * workload with per-session tracing on and writes the Chrome
 * trace_event JSON — the analyzer's chaos corpus (ssla_analyze, which
 * CI runs on it).
 */

#include <cstdio>
#include <cstring>

#include "common.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
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

enum class PoolMode
{
    None,   ///< synchronous in-handshake decrypt
    Reject, ///< tiny bounded pool, overloads rejected
    Shed,   ///< tiny bounded pool, overloads computed synchronously
};

const char *
poolModeName(PoolMode m)
{
    switch (m) {
      case PoolMode::None: return "sync";
      case PoolMode::Reject: return "pool_reject";
      case PoolMode::Shed: return "pool_shed";
    }
    return "?";
}

struct CellResult
{
    double faultRate = 0.0;
    PoolMode mode = PoolMode::None;
    serve::ServeStats stats;
    uint64_t expected = 0;
    uint64_t rejected = 0;
    uint64_t shed = 0;

    bool
    accountedOk() const
    {
        return stats.terminatedSessions() == expected;
    }
};

CellResult
runCell(double fault_rate, PoolMode mode, size_t workers,
        size_t conns_per_worker, const pki::Certificate &cert,
        const std::shared_ptr<crypto::RsaPrivateKey> &key,
        uint64_t seed)
{
    // Per-cell registry: latency percentiles and alert counts below
    // describe this (rate, mode) cell, not the accumulated sweep.
    obs::MetricsRegistry registry;

    serve::ServeConfig cfg;
    cfg.metrics = &registry;
    cfg.workers = workers;
    cfg.connectionsPerWorker = conns_per_worker;
    cfg.concurrentPerWorker = 8;
    cfg.resumeFraction = 0.3;
    cfg.bulkBytes = 0;
    cfg.certificate = &cert;
    cfg.privateKey = key;
    cfg.seed = seed;
    cfg.tolerateFailures = true;
    // Arm the deadlines even at rate 0 so the clean column exercises
    // the same code path as the faulted ones.
    cfg.handshakeDeadlineTicks = 256;
    cfg.idleDeadlineTicks = 256;

    ssl::FaultPlan plan = ssl::FaultPlan::mixed(seed, fault_rate);
    if (fault_rate > 0.0)
        cfg.faultPlan = &plan;

    CellResult r;
    r.faultRate = fault_rate;
    r.mode = mode;
    r.expected = workers * conns_per_worker;

    if (mode == PoolMode::None) {
        serve::ServeEngine engine(std::move(cfg));
        r.stats = engine.run();
    } else {
        // One pool thread and a two-deep queue against many workers:
        // deliberately saturated, so the overload policy is what the
        // cell actually measures.
        serve::CryptoPool pool(1, /*max_queue=*/2,
                               mode == PoolMode::Reject
                                   ? serve::OverloadPolicy::Reject
                                   : serve::OverloadPolicy::Shed);
        cfg.cryptoPool = &pool;
        serve::ServeEngine engine(std::move(cfg));
        r.stats = engine.run();
        r.rejected = pool.rejectedJobs();
        r.shed = pool.shedJobs();
    }
    return r;
}

/**
 * Small fully-sampled traced run under a faulted channel and a
 * saturated Reject pool, so the trace corpus carries the interesting
 * events: faults, alerts, park/resume, shed and deadline fires.
 * Returns the number of captured traces.
 */
size_t
runTraced(const pki::Certificate &cert,
          const std::shared_ptr<crypto::RsaPrivateKey> &key,
          const std::string &path)
{
    obs::ChromeTraceCollector collector;
    obs::MetricsRegistry registry;
    {
        serve::CryptoPool pool(1, /*max_queue=*/2,
                               serve::OverloadPolicy::Reject);
        serve::ServeConfig cfg;
        cfg.workers = 2;
        cfg.connectionsPerWorker = 8;
        cfg.concurrentPerWorker = 8;
        cfg.resumeFraction = 0.3;
        cfg.bulkBytes = 0;
        cfg.certificate = &cert;
        cfg.privateKey = key;
        cfg.seed = 0xdeca2;
        cfg.tolerateFailures = true;
        cfg.handshakeDeadlineTicks = 256;
        cfg.idleDeadlineTicks = 256;
        ssl::FaultPlan plan = ssl::FaultPlan::mixed(cfg.seed, 0.10);
        cfg.faultPlan = &plan;
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

    const std::vector<double> rates =
        smoke ? std::vector<double>{0.0, 0.10}
              : std::vector<double>{0.0, 0.02, 0.05, 0.10, 0.20};
    const size_t workers = 2;
    const size_t conns_per_worker = smoke ? 24 : 200;

    const auto &key = benchKey(1024);
    pki::CertificateInfo info;
    info.serial = 2;
    info.issuer = "Bench CA";
    info.subject = "bench.degradation";
    info.notBefore = 0;
    info.notAfter = ~uint64_t(0);
    info.publicKey = key.pub;
    pki::Certificate cert = pki::Certificate::issue(info, *key.priv);

    const PoolMode modes[] = {PoolMode::None, PoolMode::Reject,
                              PoolMode::Shed};

    bool all_accounted = true;
    bool clean_baseline_ok = true;

    JsonWriter j;
    j.beginObject();
    j.field("bench", "serve_degradation");
    j.field("smoke", smoke);
    j.field("workers", static_cast<uint64_t>(workers));
    j.field("connections_per_worker",
            static_cast<uint64_t>(conns_per_worker));
    j.beginArray("fault_rates");
    for (double r : rates)
        j.element(r, 2);
    j.endArray();

    j.beginArray("results");
    for (PoolMode mode : modes) {
        double prev_goodput = -1.0;
        bool monotone = true;
        for (double rate : rates) {
            CellResult cell = runCell(
                rate, mode, workers, conns_per_worker, cert, key.priv,
                0xdeca1 ^ static_cast<uint64_t>(rate * 1000) ^
                    (static_cast<uint64_t>(mode) << 20));
            all_accounted = all_accounted && cell.accountedOk();
            const uint64_t completed = cell.stats.fullHandshakes() +
                                       cell.stats.resumedHandshakes();
            // Reject mode legitimately drops sessions even on a clean
            // channel — the saturated pool answering with
            // internal_error IS the policy — so the full-completion
            // baseline applies to the other two modes only.
            if (rate == 0.0 && mode != PoolMode::Reject &&
                completed != cell.expected)
                clean_baseline_ok = false;
            // Monotonicity is measured on the completed fraction, not
            // the rate: wall-clock noise must not fake a cliff.
            double fraction =
                static_cast<double>(completed) / cell.expected;
            if (prev_goodput >= 0 && fraction > prev_goodput + 0.10)
                monotone = false; // fraction ROSE with the fault rate
            prev_goodput = fraction;

            j.beginObject();
            j.field("pool_mode", poolModeName(mode));
            j.field("fault_rate", rate, 2);
            j.field("completed", completed);
            j.field("alerted", cell.stats.failedHandshakes());
            j.field("timed_out", cell.stats.timedOutSessions());
            j.field("evicted", cell.stats.evictedSessions());
            j.field("faults_injected", cell.stats.faultsInjected());
            j.field("park_events", cell.stats.parkEvents());
            j.field("pool_rejected", cell.rejected);
            j.field("pool_shed", cell.shed);
            j.field("completed_fraction", fraction, 3);
            j.field("goodput_per_sec", cell.stats.goodputPerSec(), 1);
            j.field("elapsed_sec", cell.stats.elapsedSeconds);
            // Completed-handshake latency distribution for the cell
            // (µs, from the per-cell registry): the degradation story
            // in latency terms — the tail stretches as faults force
            // retries within the surviving sessions.
            const obs::HistogramSnapshot hs =
                cell.stats.metrics.histogram("serve.handshake_cycles");
            j.field("hs_count", hs.count);
            j.field("hs_p50_us", cyclesToUs(hs.percentile(50)), 1);
            j.field("hs_p99_us", cyclesToUs(hs.percentile(99)), 1);
            // Alert traffic by code, from the per-cell registry: which
            // alerts the fault mix actually provokes.
            uint64_t alerts_sent = 0;
            for (const auto &[name, value] :
                 cell.stats.metrics.counters)
                if (name.rfind("alert.sent.", 0) == 0)
                    alerts_sent += value;
            j.field("alerts_sent", alerts_sent);
            j.field("accounted_ok", cell.accountedOk());
            j.endObject();
        }
        // Reported per mode; informational (strict monotonicity in the
        // completed fraction holds in expectation, not per seed).
        j.beginObject();
        j.field("pool_mode", poolModeName(mode));
        j.field("monotone_goodput", monotone);
        j.endObject();
    }
    j.endArray();

    bool trace_ok = true;
    if (!trace_path.empty()) {
        size_t traced = runTraced(cert, key.priv, trace_path);
        j.beginObject("trace");
        j.field("file", trace_path);
        j.field("sessions", static_cast<uint64_t>(traced));
        j.endObject();
        trace_ok = traced != 0;
    }

    j.field("all_accounted", all_accounted);
    j.field("clean_baseline_ok", clean_baseline_ok);
    j.endObject();

    if (!trace_ok) {
        std::fprintf(stderr,
                     "FAIL: traced run captured no sessions or could "
                     "not write %s\n",
                     trace_path.c_str());
        return 1;
    }

    if (!all_accounted) {
        std::fprintf(stderr,
                     "FAIL: a cell lost sessions (completed + alerted "
                     "+ timed_out != configured total)\n");
        return 1;
    }
    if (!clean_baseline_ok) {
        std::fprintf(stderr,
                     "FAIL: zero-fault baseline did not complete every "
                     "session\n");
        return 1;
    }
    return 0;
}
