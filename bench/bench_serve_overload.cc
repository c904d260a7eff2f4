/**
 * @file
 * Overload-control sweep: offered load past crypto capacity, Reject vs
 * Shed vs Adaptive admission, plus chaos cells that kill crypto threads
 * under a Supervisor.
 *
 * The serving layer's capacity is the RSA engine (Table 2: ~90% of a
 * full handshake), so overload is modeled directly: one pool thread
 * against many engine workers, each multiplexing more concurrent
 * sessions than the pool can serve, and a wall-clock abandonment
 * deadline (ServeConfig::handshakeAbandonCycles) a few RSA-ops wide —
 * the client that gives up and leaves. Under that deadline queue delay
 * costs goodput: a session parked behind a deep queue is doomed, and a
 * policy that lets the queue grow wastes capacity on it. Reject admits
 * by queue depth, not viability, so under pressure most of what it
 * admits is already dead on arrival; Shed head-of-line blocks the
 * engine itself for an RSA op per fallback, starving every other
 * in-flight session past its deadline. Adaptive's control loop holds
 * the queue-wait p99 at a target the abandonment deadline can absorb
 * and deadline-sheds the rest before their RSA cycles are spent, so
 * deadline-respecting completions per second — goodput, as the
 * clients see it — stay highest as load climbs.
 *
 * Chaos cells run the same engine with a CryptoFaultPlan that kills
 * pool threads mid-job (deterministic death budget) and a Supervisor
 * healing the pool; the self-healing claim is that every session still
 * reaches a terminal outcome and the pool ends fully restaffed.
 *
 * Emits the BENCH_overload.json schema (see EXPERIMENTS.md). The exit
 * code gates the ISSUE's claims — Adaptive goodput >= both static
 * policies at the highest overload cell, zero hung sessions in every
 * chaos cell, and full termination accounting everywhere — never
 * absolute rates, so CI is meaningful on any machine shape.
 *
 *   ./bench_serve_overload [--smoke] [--trace FILE]
 *
 * --trace FILE additionally runs a small fully-sampled overloaded
 * workload (Adaptive admission, saturated pool, abandonment deadline)
 * with per-session tracing on and writes the Chrome trace_event JSON —
 * the analyzer's overload corpus (ssla_analyze's queue_delay pass; CI
 * also checks its shape and the report's determinism).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common.hh"
#include "crypto/rand.hh"
#include "crypto/rsa.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "serve/breaker.hh"
#include "serve/engine.hh"
#include "serve/supervisor.hh"
#include "util/cycles.hh"

using namespace ssla;
using namespace ssla::bench;

namespace
{

double
cyclesToUs(double cycles)
{
    return cycles / cycleHz() * 1e6;
}

double
cyclesToMs(double cycles)
{
    return cycles / cycleHz() * 1e3;
}

const char *
policyName(serve::OverloadPolicy p)
{
    switch (p) {
      case serve::OverloadPolicy::Reject: return "reject";
      case serve::OverloadPolicy::Shed: return "shed";
      case serve::OverloadPolicy::Adaptive: return "adaptive";
    }
    return "?";
}

/**
 * Median cycles of one RSA private-key decrypt on this machine — the
 * capacity unit every deadline in the sweep is expressed in, so the
 * cells mean the same thing on any hardware.
 */
uint64_t
calibrateRsaOpCycles(const crypto::RsaKeyPair &key)
{
    Bytes plain = benchPayload(48, 0x0b5e55);
    crypto::RandomPool rng(benchPayload(32, 0x5eed));
    Bytes cipher = crypto::rsaPublicEncrypt(key.pub, plain, rng);
    uint64_t best = UINT64_MAX;
    for (int i = 0; i < 3; ++i) {
        uint64_t t0 = rdcycles();
        Bytes out = crypto::rsaPrivateDecrypt(*key.priv, cipher);
        uint64_t dt = rdcycles() - t0;
        if (out == plain && dt < best)
            best = dt;
    }
    return best;
}

struct SweepCell
{
    serve::OverloadPolicy policy{};
    size_t concurrent = 0;
    uint64_t expected = 0;
    serve::ServeStats stats;
    uint64_t poolExecuted = 0;
    uint64_t poolRejected = 0;
    uint64_t poolSyncFallbacks = 0;
    uint64_t poolDeadlineShed = 0;
    uint64_t shedNewFull = 0;
    uint64_t shedContinuation = 0;
    uint64_t shedResumption = 0;
    uint64_t peakQueue = 0;

    uint64_t
    completed() const
    {
        return stats.fullHandshakes() + stats.resumedHandshakes();
    }

    /**
     * Goodput numerator: completions the client was still around to
     * see. A handshake finished past the abandonment deadline (the
     * sync fallback always finishes, however stale) served nobody.
     */
    uint64_t
    inTime() const
    {
        uint64_t late = stats.lateHandshakes();
        uint64_t c = completed();
        return c > late ? c - late : 0;
    }

    double
    goodputPerSec() const
    {
        return stats.goodputPerSec();
    }

    /**
     * RSA work actually spent (pool executions + synchronous
     * fallbacks) that did not end in an in-time full handshake —
     * cycles burned for a session that died, or that completed after
     * its client had walked away.
     */
    double
    wastedWorkFraction() const
    {
        uint64_t spent = poolExecuted + poolSyncFallbacks;
        if (spent == 0)
            return 0.0;
        uint64_t full = stats.fullHandshakes();
        uint64_t late = stats.lateHandshakes();
        uint64_t useful = full > late ? full - late : 0;
        uint64_t wasted = spent > useful ? spent - useful : 0;
        return static_cast<double>(wasted) /
               static_cast<double>(spent);
    }

    bool
    accountedOk() const
    {
        return stats.terminatedSessions() == expected;
    }
};

/**
 * One unloaded run whose only job is to mint resumable sessions: every
 * overload cell starts from the same warmed-server state, so the
 * resumption share of its arrival mix is a property of the workload,
 * not of how fast the previous connections died.
 */
std::vector<ssl::Session>
warmSessions(size_t workers, const pki::Certificate &cert,
             const std::shared_ptr<crypto::RsaPrivateKey> &key)
{
    serve::ServeConfig cfg;
    cfg.workers = workers;
    cfg.connectionsPerWorker = 16;
    cfg.concurrentPerWorker = 2;
    cfg.certificate = &cert;
    cfg.privateKey = key;
    cfg.seed = 0x3a7ed;
    serve::ServeEngine engine(std::move(cfg));
    engine.run();
    return engine.completedSessions();
}

SweepCell
runSweepCell(serve::OverloadPolicy policy, size_t concurrent,
             size_t workers, size_t conns_per_worker,
             const std::vector<ssl::Session> &warm,
             const pki::Certificate &cert,
             const std::shared_ptr<crypto::RsaPrivateKey> &key,
             uint64_t op_cycles, uint64_t seed)
{
    obs::MetricsRegistry registry;

    // One pool thread, queue deeper than the abandonment horizon:
    // deliberately saturated, so the admission policy — not the queue
    // bound — is what the cell measures. Adaptive's control loop is
    // tuned in capacity units against the four-op abandonment below: a
    // queue-wait p99 at the two-op target still completes in time
    // (wait + execute + a resume sweep < abandon), and the three-op
    // deadline budget sheds at dequeue exactly the jobs whose sessions
    // are already doomed.
    serve::AdmissionControl adm;
    if (policy == serve::OverloadPolicy::Adaptive) {
        adm.targetDelayCycles = 2 * op_cycles;
        adm.intervalCycles = op_cycles;
        adm.deadlineBudgetCycles = 3 * op_cycles;
    }
    serve::CryptoPool pool(1, /*max_queue=*/4, policy, adm);
    pool.bindMetrics(&registry);

    serve::ServeConfig cfg;
    cfg.metrics = &registry;
    cfg.workers = workers;
    cfg.connectionsPerWorker = conns_per_worker;
    cfg.concurrentPerWorker = concurrent;
    cfg.resumeFraction = 0.5;
    cfg.resumptionSeed = warm;
    cfg.bulkBytes = 0;
    cfg.certificate = &cert;
    cfg.privateKey = key;
    cfg.cryptoPool = &pool;
    cfg.seed = seed;
    cfg.tolerateFailures = true;
    // The impatient client: a session still handshaking four RSA-ops
    // after creation walks away. This is the knob that makes queue
    // delay cost goodput — without it a doomed session would park on
    // the saturated queue forever and still "complete".
    cfg.handshakeAbandonCycles = 4 * op_cycles;

    SweepCell r;
    r.policy = policy;
    r.concurrent = concurrent;
    r.expected = workers * conns_per_worker;

    serve::ServeEngine engine(std::move(cfg));
    r.stats = engine.run();

    r.poolExecuted = pool.completedJobs();
    r.poolRejected = pool.rejectedJobs();
    r.poolSyncFallbacks = pool.shedJobs();
    r.poolDeadlineShed = pool.deadlineShedJobs();
    r.shedNewFull =
        pool.shedByClass(serve::JobClass::NewFullHandshake);
    r.shedContinuation =
        pool.shedByClass(serve::JobClass::Continuation);
    r.shedResumption = pool.shedByClass(serve::JobClass::Resumption);
    r.peakQueue = pool.peakQueueDepth();
    return r;
}

struct ChaosCell
{
    uint64_t seed = 0;
    uint64_t expected = 0;
    uint64_t deathBudget = 0;
    serve::ServeStats stats;
    uint64_t threadRestarts = 0;
    uint64_t supervisedFailures = 0;
    uint64_t supervisorRestarts = 0;

    uint64_t
    hungSessions() const
    {
        uint64_t t = stats.terminatedSessions();
        return t >= expected ? 0 : expected - t;
    }

    /**
     * Every thread death was reaped and the slot restaffed. A
     * descheduled-but-alive thread can be reaped spuriously under CPU
     * contention (first-wins makes that harmless), so extra restarts
     * past the death budget are tolerated; missing ones are not.
     */
    bool
    healed() const
    {
        return threadRestarts >= deathBudget &&
               supervisedFailures >= deathBudget;
    }
};

ChaosCell
runChaosCell(uint64_t seed, size_t workers, size_t conns_per_worker,
             const pki::Certificate &cert,
             const std::shared_ptr<crypto::RsaPrivateKey> &key,
             uint64_t op_cycles)
{
    obs::MetricsRegistry registry;

    ChaosCell r;
    r.seed = seed;
    r.expected = workers * conns_per_worker;
    r.deathBudget = 2;

    // Every job draw kills its thread until the budget is spent: both
    // pool threads die on their first pickups, mid-job. Only the
    // Supervisor gets their sessions unstuck.
    serve::CryptoFaultPlan faults;
    faults.threadDeathRate = 1.0;
    faults.maxThreadDeaths = r.deathBudget;
    faults.seed = seed;

    serve::CryptoPool pool(2, /*max_queue=*/0,
                           serve::OverloadPolicy::Reject, {}, faults);
    pool.bindMetrics(&registry);

    serve::SupervisorConfig supcfg;
    supcfg.pollIntervalUs = 200;
    // Well past the worst legitimate job, with a wall-clock floor so a
    // briefly descheduled (alive) thread is not mistaken for a corpse
    // on a loaded CI machine.
    const uint64_t stall =
        std::max<uint64_t>(8 * op_cycles,
                           static_cast<uint64_t>(cycleHz() / 20));
    supcfg.stallThresholdCycles = stall;
    serve::Supervisor sup(pool, supcfg);
    sup.bindMetrics(&registry);

    serve::ServeConfig cfg;
    cfg.metrics = &registry;
    cfg.workers = workers;
    cfg.connectionsPerWorker = conns_per_worker;
    cfg.concurrentPerWorker = 4;
    cfg.resumeFraction = 0.3;
    cfg.certificate = &cert;
    cfg.privateKey = key;
    cfg.cryptoPool = &pool;
    cfg.supervisor = &sup;
    cfg.seed = seed;
    cfg.tolerateFailures = true;
    // Generous backstop — past the supervisor's detection window — so
    // a supervision bug shows up as timed-out accounting (a failed
    // gate), never as a hung benchmark.
    cfg.handshakeAbandonCycles = 4 * stall;

    serve::ServeEngine engine(std::move(cfg));
    r.stats = engine.run();

    // reapThread resolves the victim job (unblocking its session)
    // before the supervisor's own restart counter ticks; give the
    // counter a moment to catch up.
    uint64_t deadline = rdcycles() + cycleHz(); // 1 s
    while (sup.restarts() < r.deathBudget && rdcycles() < deadline)
        std::this_thread::yield();

    r.threadRestarts = pool.threadRestarts();
    r.supervisedFailures = pool.supervisedJobFailures();
    r.supervisorRestarts = sup.restarts();
    return r;
}

/**
 * Small fully-sampled traced run of the overload shape itself: one
 * worker multiplexing more sessions than the single Adaptive pool
 * thread can serve, under the abandonment deadline — so the trace
 * carries deep queue waits, deadline sheds and park/resume edges for
 * the analyzer's queue_delay pass. Returns the captured trace count.
 */
size_t
runTraced(const pki::Certificate &cert,
          const std::shared_ptr<crypto::RsaPrivateKey> &key,
          uint64_t op_cycles, const std::string &path)
{
    obs::ChromeTraceCollector collector;
    obs::MetricsRegistry registry;
    {
        serve::AdmissionControl adm;
        adm.targetDelayCycles = 2 * op_cycles;
        adm.intervalCycles = op_cycles;
        adm.deadlineBudgetCycles = 3 * op_cycles;
        serve::CryptoPool pool(1, /*max_queue=*/4,
                               serve::OverloadPolicy::Adaptive, adm);
        serve::ServeConfig cfg;
        cfg.workers = 1;
        cfg.connectionsPerWorker = 24;
        cfg.concurrentPerWorker = 12;
        cfg.resumeFraction = 0.5;
        cfg.bulkBytes = 0;
        cfg.certificate = &cert;
        cfg.privateKey = key;
        cfg.seed = 0x0afe11;
        cfg.tolerateFailures = true;
        cfg.handshakeAbandonCycles = 4 * op_cycles;
        cfg.cryptoPool = &pool;
        cfg.metrics = &registry;
        cfg.traceSampleEvery = 1;
        cfg.traceSink = &collector;
        cfg.traceDumpAll = true;
        serve::ServeEngine engine(std::move(cfg));
        engine.run();
        // Pool destruction (scope exit) dumps the crypto thread's job
        // track into the collector before we serialize.
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

    // Offered load: concurrent sessions multiplexed by ONE engine
    // worker against ONE pool thread. A single worker is deliberate:
    // Shed's synchronous fallback then stalls the entire engine for an
    // RSA op at a time (its true cost — on a terminating server every
    // worker it borrows is accept-path capacity), and there is no
    // cross-worker scheduling noise. Half the mix resumes (no RSA), so
    // the top cell offers ~16x the pool's crypto capacity.
    const size_t workers = 1;
    const size_t conns_per_worker = smoke ? 96 : 192;
    const std::vector<size_t> loads =
        smoke ? std::vector<size_t>{2, 32}
              : std::vector<size_t>{2, 8, 32};
    const size_t peak_load = loads.back();

    const auto &key = benchKey(1024);
    pki::CertificateInfo info;
    info.serial = 9;
    info.issuer = "Bench CA";
    info.subject = "bench.overload";
    info.notBefore = 0;
    info.notAfter = ~uint64_t(0);
    info.publicKey = key.pub;
    pki::Certificate cert = pki::Certificate::issue(info, *key.priv);

    const uint64_t op_cycles = calibrateRsaOpCycles(key);
    const std::vector<ssl::Session> warm =
        warmSessions(workers, cert, key.priv);

    const serve::OverloadPolicy policies[] = {
        serve::OverloadPolicy::Reject,
        serve::OverloadPolicy::Shed,
        serve::OverloadPolicy::Adaptive,
    };

    bool all_accounted = true;
    // Goodput: deadline-respecting completions per second. Both halves
    // matter. Counting raw completions per second would reward
    // refusing everything (shrink the denominator); counting the
    // completed fraction would reward the Shed fallback's serve-
    // everyone-eventually (its synchronous ops finish their own
    // handshake no matter how stale, while the engine stalls). In-time
    // completions per second rewards exactly what overload control is
    // for: spending the capacity that exists on sessions that can
    // still be served before their client walks.
    double peak_goodput[3] = {0.0, 0.0, 0.0};

    JsonWriter j;
    j.beginObject();
    j.field("bench", "serve_overload");
    j.field("smoke", smoke);
    j.field("workers", static_cast<uint64_t>(workers));
    j.field("connections_per_worker",
            static_cast<uint64_t>(conns_per_worker));
    j.field("rsa_op_ms",
            cyclesToMs(static_cast<double>(op_cycles)), 3);
    j.field("abandon_ms",
            cyclesToMs(static_cast<double>(4 * op_cycles)), 3);
    j.beginArray("concurrent_per_worker");
    for (size_t l : loads)
        j.element(static_cast<uint64_t>(l));
    j.endArray();

    j.beginArray("results");
    for (size_t pi = 0; pi < 3; ++pi) {
        serve::OverloadPolicy policy = policies[pi];
        for (size_t load : loads) {
            // The seed depends on the load only: every policy faces
            // the identical connection/resumption draw sequence, so
            // the peak-cell comparison is policy vs policy, not seed
            // vs seed.
            const uint64_t seed =
                0x0f10ad ^ (static_cast<uint64_t>(load) << 8);
            SweepCell cell = runSweepCell(
                policy, load, workers, conns_per_worker, warm, cert,
                key.priv, op_cycles, seed);
            auto inTimeRate = [](const SweepCell &c) {
                return c.stats.elapsedSeconds > 0
                           ? static_cast<double>(c.inTime()) /
                                 c.stats.elapsedSeconds
                           : 0.0;
            };
            if (load == peak_load) {
                // The gate hangs off this cell, and on a shared host a
                // descheduled run only ever *under*-reports a policy.
                // Run the decisive cell twice (same seed — identical
                // draws) and keep the better run for every policy
                // alike: max-of-2 strips interference, not signal.
                SweepCell again = runSweepCell(
                    policy, load, workers, conns_per_worker, warm,
                    cert, key.priv, op_cycles, seed);
                all_accounted = all_accounted && again.accountedOk();
                if (inTimeRate(again) > inTimeRate(cell))
                    cell = std::move(again);
            }
            all_accounted = all_accounted && cell.accountedOk();
            double fraction = static_cast<double>(cell.inTime()) /
                              static_cast<double>(cell.expected);
            double goodput = inTimeRate(cell);
            if (load == peak_load)
                peak_goodput[pi] = goodput;

            const obs::HistogramSnapshot hs =
                cell.stats.metrics.histogram("serve.handshake_cycles");
            j.beginObject();
            j.field("policy", policyName(policy));
            j.field("concurrent_per_worker",
                    static_cast<uint64_t>(load));
            j.field("offered", cell.expected);
            j.field("completed", cell.completed());
            j.field("late", cell.stats.lateHandshakes());
            j.field("in_time", cell.inTime());
            j.field("full", cell.stats.fullHandshakes());
            j.field("resumed", cell.stats.resumedHandshakes());
            j.field("alerted", cell.stats.failedHandshakes());
            j.field("abandoned", cell.stats.timedOutSessions());
            j.field("goodput_fraction", fraction, 3);
            j.field("goodput_per_sec", goodput, 1);
            j.field("completed_per_sec", cell.goodputPerSec(), 1);
            j.field("hs_p50_us", cyclesToUs(hs.percentile(50)), 1);
            j.field("hs_p99_us", cyclesToUs(hs.percentile(99)), 1);
            j.field("wasted_work_fraction", cell.wastedWorkFraction(),
                    3);
            j.field("pool_executed", cell.poolExecuted);
            j.field("pool_rejected", cell.poolRejected);
            j.field("pool_sync_fallbacks", cell.poolSyncFallbacks);
            j.field("pool_deadline_shed", cell.poolDeadlineShed);
            j.field("shed_new_full", cell.shedNewFull);
            j.field("shed_continuation", cell.shedContinuation);
            j.field("shed_resumption", cell.shedResumption);
            j.field("peak_queue_depth", cell.peakQueue);
            j.field("elapsed_sec", cell.stats.elapsedSeconds);
            j.field("accounted_ok", cell.accountedOk());
            j.endObject();
        }
    }
    j.endArray();

    // The tentpole claim, measured at the deepest overload: class-
    // aware shedding must not lose to either static policy on
    // deadline-respecting completions per second.
    bool adaptive_goodput_wins =
        peak_goodput[2] >= peak_goodput[0] &&
        peak_goodput[2] >= peak_goodput[1];

    bool no_hung_sessions = true;
    const uint64_t chaos_seeds[] = {0xc4a05u, 0x0dd5eedu};
    j.beginArray("chaos");
    for (uint64_t seed : chaos_seeds) {
        ChaosCell cell = runChaosCell(
            seed, workers, smoke ? size_t(10) : size_t(24), cert,
            key.priv, op_cycles);
        bool ok = cell.hungSessions() == 0 && cell.healed();
        no_hung_sessions = no_hung_sessions && ok;
        all_accounted =
            all_accounted && cell.stats.terminatedSessions() ==
                                 cell.expected;

        j.beginObject();
        j.field("seed", cell.seed);
        j.field("offered", cell.expected);
        j.field("terminated", cell.stats.terminatedSessions());
        j.field("hung_sessions", cell.hungSessions());
        j.field("completed", cell.stats.fullHandshakes() +
                                 cell.stats.resumedHandshakes());
        j.field("alerted", cell.stats.failedHandshakes());
        j.field("timed_out", cell.stats.timedOutSessions());
        j.field("thread_deaths", cell.deathBudget);
        j.field("thread_restarts", cell.threadRestarts);
        j.field("supervised_job_failures", cell.supervisedFailures);
        j.field("supervisor_restarts", cell.supervisorRestarts);
        j.field("healed", cell.healed());
        j.field("cell_ok", ok);
        j.endObject();
    }
    j.endArray();

    bool trace_ok = true;
    if (!trace_path.empty()) {
        size_t traced =
            runTraced(cert, key.priv, op_cycles, trace_path);
        j.beginObject("trace");
        j.field("file", trace_path);
        j.field("sessions", static_cast<uint64_t>(traced));
        j.endObject();
        trace_ok = traced != 0;
    }

    j.beginObject("gate");
    j.field("adaptive_goodput_wins", adaptive_goodput_wins);
    j.field("no_hung_sessions", no_hung_sessions);
    j.field("all_accounted", all_accounted);
    j.field("pass", adaptive_goodput_wins && no_hung_sessions &&
                        all_accounted);
    j.endObject();
    j.endObject();

    if (!trace_ok) {
        std::fprintf(stderr,
                     "FAIL: traced run captured no sessions or could "
                     "not write %s\n",
                     trace_path.c_str());
        return 1;
    }

    if (!adaptive_goodput_wins) {
        std::fprintf(stderr,
                     "FAIL: Adaptive goodput (%.1f in-time/s) lost "
                     "to a static policy (reject %.1f/s, shed "
                     "%.1f/s) at the highest overload cell\n",
                     peak_goodput[2], peak_goodput[0],
                     peak_goodput[1]);
        return 1;
    }
    if (!no_hung_sessions) {
        std::fprintf(stderr,
                     "FAIL: a chaos cell left sessions hung or the "
                     "pool unhealed after crypto-thread deaths\n");
        return 1;
    }
    if (!all_accounted) {
        std::fprintf(stderr,
                     "FAIL: a cell lost sessions (terminal outcomes "
                     "!= configured total)\n");
        return 1;
    }
    return 0;
}
