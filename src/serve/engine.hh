/**
 * @file
 * Multi-core SSL serving engine.
 *
 * The paper characterizes one handshake on one thread; a terminating
 * server's problem is thousands of concurrent handshakes on a few
 * cores. The ServeEngine adds that axis to the reproduction: N worker
 * threads each multiplex many in-memory client/server connection pairs
 * (the paper's ssltest arrangement, many at once) through the existing
 * non-blocking endpoints. Sessions shard across workers by
 * construction — each worker owns its connections outright, so the
 * only shared state is the session store (lock-striped), the crypto
 * pool (internally synchronized) and the completed-session list used
 * to seed resumption attempts.
 *
 * With a CryptoPool configured, a server that reaches
 * ClientKeyExchange parks on the offloaded RSA decrypt
 * (SslServer::waitingOnCrypto()) and its worker moves on to the next
 * session in the shard — the Section 6.2 "other useful work" applied
 * across connections. Within one record path the paper's MAC/encrypt
 * overlap is a hardware proposal; it lives only in the perf/ablation
 * model, and every record is sealed synchronously.
 */

#ifndef SSLA_SERVE_ENGINE_HH
#define SSLA_SERVE_ENGINE_HH

#include <memory>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pki/cert.hh"
#include "serve/cryptopool.hh"
#include "ssl/ciphersuite.hh"
#include "ssl/faultbio.hh"
#include "ssl/shardcache.hh"

namespace ssla::serve
{

class Supervisor;

/** Workload and topology of one engine run. */
struct ServeConfig
{
    /** Worker threads, each multiplexing its own session shard. */
    size_t workers = 1;
    /** Connection slots a worker keeps in flight at once. */
    size_t concurrentPerWorker = 8;
    /** Total connections each worker completes before stopping. */
    size_t connectionsPerWorker = 32;
    /**
     * Fraction (0..1) of connections that offer a previously
     * established session for resumption (abbreviated handshake).
     * Sessions complete on any worker and resume on any other through
     * the sharded store.
     */
    double resumeFraction = 0.0;
    /** Application bytes the client streams per connection (0 = none). */
    size_t bulkBytes = 0;
    /** Bytes per application-data write during the bulk phase. */
    size_t recordBytes = 4096;
    /**
     * Data-plane session mode: when > 0, the bulk phase batches up to
     * this many record-sized spans into ONE gather-send per session per
     * sweep (writev-backed sendMany), instead of one copying write per
     * record. Sweeping the shard then flushes every streaming session
     * back to back — the cross-session batched flush. 0 = legacy
     * per-record writes.
     */
    size_t bulkBatchRecords = 0;
    ssl::CipherSuiteId suite = ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA;
    /**
     * Crypto pool for asynchronous RSA offload; null keeps the
     * synchronous in-handshake decrypt (the baseline).
     */
    CryptoPool *cryptoPool = nullptr;
    /** Base provider (null = scalar). Must be thread-safe to share. */
    crypto::Provider *provider = nullptr;
    /** Server identity; both must be set. */
    const pki::Certificate *certificate = nullptr;
    std::shared_ptr<crypto::RsaPrivateKey> privateKey;
    /** Session store; null = engine-internal ShardedSessionCache. */
    ssl::SessionStore *sessionStore = nullptr;
    /**
     * Pre-established sessions injected into the session store and the
     * resumption ring before workers start — the warmed-server arrival
     * mix. Without this, resumption draws fall back to full handshakes
     * until in-run completions seed the ring, which under-counts
     * resumption traffic in short overload runs (a fast-shedding
     * policy would burn the whole fixed workload before any session
     * exists to resume). Harvest from a prior run with
     * ServeEngine::completedSessions().
     */
    std::vector<ssl::Session> resumptionSeed;
    /** Seed from which all per-connection randomness derives. */
    uint64_t seed = 0x5e17e;

    // --- Robustness knobs (the fault-injection harness) ---

    /**
     * Adversarial channel: when set, every connection's wires run
     * through a FaultyBioPair whose PRNG is seeded per connection from
     * plan->seed and the engine seed, so a whole chaos run reproduces
     * from two numbers. Implies tolerateFailures. Connection faults
     * are expected to kill sessions; the engine counts the outcome
     * (failed/timed out) and frees the slot instead of aborting.
     */
    const ssl::FaultPlan *faultPlan = nullptr;
    /**
     * Optional distinct plan for the server→client direction. Ignored
     * unless faultPlan is also set; when given, client→server records
     * fault under faultPlan and the reverse direction under this plan
     * (e.g. a lossy upstream against a clean downstream).
     */
    const ssl::FaultPlan *faultPlanReverse = nullptr;
    /**
     * Virtual-tick handshake deadline: sweeps a connection may spend
     * before both sides reach handshakeDone (0 = no deadline; set to a
     * default when faultPlan is given). One tick = one multiplexer
     * sweep of the owning worker, which is also when staged FaultyBio
     * stalls age — so deadlines are deterministic in channel time, not
     * wall time. Sweeps spent parked on the crypto pool do not count:
     * queue wait is the pool's to shed, not the channel's.
     */
    size_t handshakeDeadlineTicks = 0;
    /** Sweeps without progress after the handshake before eviction. */
    size_t idleDeadlineTicks = 0;
    /**
     * Count per-session SslError failures instead of rethrowing them
     * (a torn-down session frees its slot and the run continues).
     * Forced on by faultPlan. Non-SslError exceptions still propagate:
     * under the robustness contract every malformed-input path must
     * surface as exactly one SslError, so anything else is a bug.
     */
    bool tolerateFailures = false;

    // --- Overload-control knobs (the self-healing control plane) ---

    /**
     * Heartbeat supervisor (not owned; must outlive run()). Each
     * worker registers an external heartbeat slot and stamps it every
     * sweep, so a wedged worker is at least observable.
     */
    Supervisor *supervisor = nullptr;
    /**
     * Wall-clock handshake abandonment deadline in cycles (0 = off):
     * a session still handshaking this many cycles after creation is
     * torn down as timed out — EVEN while parked on the crypto pool.
     * This models the client that gives up and leaves; it is what
     * makes queue delay cost goodput in the overload bench (virtual-
     * tick deadlines deliberately exempt parked sessions, so without
     * this a session could wait on a saturated queue forever and
     * still "complete").
     */
    uint64_t handshakeAbandonCycles = 0;

    // --- Observability knobs (the telemetry subsystem) ---

    /**
     * Metrics registry the run reports into (null = process-global).
     * Benches that need isolated numbers per cell pass their own.
     */
    obs::MetricsRegistry *metrics = nullptr;
    /**
     * Master metrics switch, applied to the registry before workers
     * start. Disabling turns every counter/histogram touch into a
     * single relaxed load — the overhead-measurement baseline.
     */
    bool metricsEnabled = true;
    /**
     * Trace 1-in-N connections (0 = tracing off, 1 = every session).
     * A traced connection gets a SessionTrace ring shared by its
     * client, server, channel and engine events.
     */
    uint32_t traceSampleEvery = 0;
    /** Where terminal traces go (null = nowhere, tracing still cheap). */
    obs::TraceSink *traceSink = nullptr;
    /**
     * Dump every traced session at its end, not only failures. Off by
     * default: the flight recorder is for post-mortems, and a healthy
     * run's traces are noise (benchmarks opt in for export).
     */
    bool traceDumpAll = false;
    /**
     * Outcome-keyed retention (obs::TraceSampling): every connection
     * records into a ring, failed/timed-out/fatal sessions always
     * dump, and completed ones decay to the 1-in-traceSampleEvery
     * rate. Keeps the interesting tail observable under sampling.
     */
    bool traceKeepFailures = false;
};

/**
 * Counters one worker accumulates (no locks; read after join). These
 * are a per-worker view; at worker exit the totals are also flushed
 * into the run's MetricsRegistry as serve.* counters, so the snapshot
 * in ServeStats::metrics carries the same numbers plus percentiles.
 */
struct WorkerStats
{
    uint64_t fullHandshakes = 0;
    uint64_t resumedHandshakes = 0;
    uint64_t bulkBytesMoved = 0;
    /** Times a session parked on in-flight crypto (both reasons). */
    uint64_t parkEvents = 0;
    /** Parks waiting on the pre-master RSA decrypt (RSA suites). */
    uint64_t parkEventsDecrypt = 0;
    /** Parks waiting on the ServerKeyExchange sign (DHE suites). */
    uint64_t parkEventsSign = 0;
    /** Multiplexer sweeps over the shard. */
    uint64_t sweeps = 0;
    /** Sessions torn down by a fatal alert (either side failed). */
    uint64_t failedHandshakes = 0;
    /** Sessions torn down by a handshake or idle deadline. */
    uint64_t timedOutSessions = 0;
    /**
     * Handshakes that completed with a wall clock already past
     * handshakeAbandonCycles (0 when the knob is off). They count as
     * completed, but a real client had walked away — overload benches
     * subtract them from goodput as work served too late to matter.
     */
    uint64_t lateHandshakes = 0;
    /** Cache entries scrubbed during session teardown. */
    uint64_t evictedSessions = 0;
    /** FaultyBio mutations injected across this worker's channels. */
    uint64_t faultsInjected = 0;
    /** Batched data-plane gather-sends issued (bulkBatchRecords > 0). */
    uint64_t dataPlaneFlushes = 0;
    /** Record-sized spans moved through those batched sends. */
    uint64_t dataPlaneRecords = 0;
};

/** Aggregate results of a run. */
struct ServeStats
{
    std::vector<WorkerStats> perWorker;
    double elapsedSeconds = 0.0;
    /**
     * Snapshot of the run's metrics registry taken after workers join:
     * serve.* counters, the serve.handshake_cycles histogram (p50/p99
     * handshake latency), record/cache/cryptopool/alert metrics.
     */
    obs::MetricsSnapshot metrics;

    uint64_t fullHandshakes() const;
    uint64_t resumedHandshakes() const;
    uint64_t bulkBytesMoved() const;
    uint64_t parkEvents() const;
    uint64_t parkEventsDecrypt() const;
    uint64_t parkEventsSign() const;
    uint64_t failedHandshakes() const;
    uint64_t timedOutSessions() const;
    uint64_t lateHandshakes() const;
    uint64_t evictedSessions() const;
    uint64_t faultsInjected() const;
    uint64_t dataPlaneFlushes() const;
    uint64_t dataPlaneRecords() const;

    /**
     * Every session's terminal outcome, summed: completed (full or
     * resumed) + alerted + timed out. The chaos invariant is that this
     * equals the configured workload — no session just vanishes.
     */
    uint64_t terminatedSessions() const;

    double fullHandshakesPerSec() const;
    double resumedHandshakesPerSec() const;
    double bulkMBPerSec() const;
    /** Completed handshakes (goodput) per second. */
    double goodputPerSec() const;
};

/** Drives the configured workload to completion on worker threads. */
class ServeEngine
{
  public:
    /**
     * @throws std::invalid_argument on missing identity or zero work
     */
    explicit ServeEngine(ServeConfig config);
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * Run the workload to completion and return aggregate stats.
     * Rethrows the first worker failure (handshake errors are bugs
     * here — both peers are ours).
     */
    ServeStats run();

    /** The session store the run used (internal or configured). */
    ssl::SessionStore &sessionStore();

    /**
     * Snapshot of the resumption ring (sessions completed this run
     * plus any configured seed), for warming a subsequent engine's
     * ServeConfig::resumptionSeed. Call after run().
     */
    std::vector<ssl::Session> completedSessions() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace ssla::serve

#endif // SSLA_SERVE_ENGINE_HH
