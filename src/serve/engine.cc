#include "serve/engine.hh"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "perf/probe.hh"
#include "serve/supervisor.hh"
#include "ssl/client.hh"
#include "ssl/server.hh"
#include "util/endian.hh"
#include "util/logging.hh"

namespace ssla::serve
{

namespace
{

/**
 * Session trace of the connection the current worker is pumping right
 * now; the captured log sink appends warn()/inform() text here. Set
 * around each pumpConn() call, so a warning emitted deep inside the
 * record layer lands in the right session's flight recorder.
 */
thread_local obs::SessionTrace *t_activeTrace = nullptr;

/** splitmix64 — deterministic per-connection seed derivation. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

Bytes
seedBytes(uint64_t seed, uint8_t tag)
{
    Bytes out(9);
    store64le(out.data(), seed);
    out[8] = tag;
    return out;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// ServeStats

uint64_t
ServeStats::fullHandshakes() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.fullHandshakes;
    return n;
}

uint64_t
ServeStats::resumedHandshakes() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.resumedHandshakes;
    return n;
}

uint64_t
ServeStats::bulkBytesMoved() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.bulkBytesMoved;
    return n;
}

uint64_t
ServeStats::parkEvents() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.parkEvents;
    return n;
}

uint64_t
ServeStats::parkEventsDecrypt() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.parkEventsDecrypt;
    return n;
}

uint64_t
ServeStats::parkEventsSign() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.parkEventsSign;
    return n;
}

uint64_t
ServeStats::failedHandshakes() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.failedHandshakes;
    return n;
}

uint64_t
ServeStats::timedOutSessions() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.timedOutSessions;
    return n;
}

uint64_t
ServeStats::lateHandshakes() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.lateHandshakes;
    return n;
}

uint64_t
ServeStats::evictedSessions() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.evictedSessions;
    return n;
}

uint64_t
ServeStats::faultsInjected() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.faultsInjected;
    return n;
}

uint64_t
ServeStats::dataPlaneFlushes() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.dataPlaneFlushes;
    return n;
}

uint64_t
ServeStats::dataPlaneRecords() const
{
    uint64_t n = 0;
    for (const auto &w : perWorker)
        n += w.dataPlaneRecords;
    return n;
}

uint64_t
ServeStats::terminatedSessions() const
{
    return fullHandshakes() + resumedHandshakes() +
           failedHandshakes() + timedOutSessions();
}

double
ServeStats::fullHandshakesPerSec() const
{
    return elapsedSeconds > 0 ? fullHandshakes() / elapsedSeconds : 0.0;
}

double
ServeStats::resumedHandshakesPerSec() const
{
    return elapsedSeconds > 0 ? resumedHandshakes() / elapsedSeconds
                              : 0.0;
}

double
ServeStats::bulkMBPerSec() const
{
    return elapsedSeconds > 0
               ? (bulkBytesMoved() / 1e6) / elapsedSeconds
               : 0.0;
}

double
ServeStats::goodputPerSec() const
{
    return elapsedSeconds > 0
               ? (fullHandshakes() + resumedHandshakes()) /
                     elapsedSeconds
               : 0.0;
}

// ---------------------------------------------------------------------
// ServeEngine

struct ServeEngine::Impl
{
    explicit Impl(ServeConfig cfg) : cfg(std::move(cfg)) {}

    /** One multiplexed in-memory connection pair. */
    struct Conn
    {
        /** Exactly one of these backs the endpoints' BIOs. */
        std::unique_ptr<ssl::BioPair> cleanWires;
        std::unique_ptr<ssl::FaultyBioPair> faultyWires;
        crypto::RandomPool clientPool;
        crypto::RandomPool serverPool;
        std::unique_ptr<ssl::SslClient> client;
        std::unique_ptr<ssl::SslServer> server;
        size_t bulkSent = 0;
        size_t bulkReceived = 0;
        bool parked = false;           ///< currently counted as parked
        /** Why the session is parked (valid while parked). */
        ssl::CryptoWait parkReason = ssl::CryptoWait::None;
        /** JobClass + 1 stamped on the Park event, replayed on the
         *  matching Resume (0 = never parked). */
        uint16_t parkClassCode = 0;
        /** Drew the resumption branch AND had a session to offer. */
        bool offeredResumption = false;
        /** Parked at least once: later submits are Continuation
         *  class (work already invested in this handshake). */
        bool everParked = false;
        bool hsLatencyRecorded = false;///< handshake histogram done
        uint64_t startSweep = 0;       ///< sweep the conn opened on
        /** Sweep the handshake deadline counts from: startSweep moved
         *  forward one per sweep spent parked on the crypto pool. */
        uint64_t deadlineSweep = 0;
        uint64_t lastProgressSweep = 0;///< sweep it last advanced on
        uint64_t startCycles = 0;      ///< rdcycles() at creation
        /** Flight recorder, when this connection drew a sample slot. */
        std::unique_ptr<obs::SessionTrace> trace;
    };

    ServeConfig cfg;
    obs::MetricsRegistry *reg = nullptr;
    ssl::RecordCounters recordCounters;
    obs::Histogram histHandshakeCycles;
    obs::Histogram histHandshakeSweeps;
    std::unique_ptr<ssl::ShardedSessionCache> internalStore;
    ssl::SessionStore *store = nullptr;
    std::unique_ptr<PooledProvider> pooledProvider;
    crypto::Provider *provider = nullptr;

    // Completed sessions feeding resumption attempts (bounded ring).
    std::mutex sessionsM;
    std::vector<ssl::Session> sessions;
    size_t sessionPick = 0;
    size_t sessionOverwrite = 0;
    static constexpr size_t sessionRingCap = 512;

    std::optional<ssl::Session>
    pickCompletedSession()
    {
        std::lock_guard<std::mutex> lock(sessionsM);
        if (sessions.empty())
            return std::nullopt;
        return sessions[sessionPick++ % sessions.size()];
    }

    void
    offerCompletedSession(const ssl::Session &s)
    {
        std::lock_guard<std::mutex> lock(sessionsM);
        if (sessions.size() < sessionRingCap)
            sessions.push_back(s);
        else
            sessions[sessionOverwrite++ % sessionRingCap] = s;
    }

    /** Deterministic per-connection seed: replay from cfg.seed alone. */
    uint64_t
    connSeed(size_t worker_id, size_t serial) const
    {
        return mix64(cfg.seed ^ mix64((worker_id << 32) | serial));
    }

    std::unique_ptr<Conn>
    makeConn(size_t worker_id, size_t serial,
             const std::shared_ptr<crypto::RsaPrivateKey> &worker_key)
    {
        auto conn = std::make_unique<Conn>();
        uint64_t cseed = connSeed(worker_id, serial);
        conn->clientPool =
            crypto::RandomPool(seedBytes(cseed, /*tag=*/0xc1));
        conn->serverPool =
            crypto::RandomPool(seedBytes(cseed, /*tag=*/0x5e));

        ssl::BioEndpoint client_end, server_end;
        if (cfg.faultPlan) {
            // Per-connection seed split: the whole chaos run replays
            // from (engine seed, plan seed) alone.
            ssl::FaultPlan plan = *cfg.faultPlan;
            plan.seed = mix64(plan.seed ^ cseed);
            ssl::FaultPlan reverse =
                cfg.faultPlanReverse ? *cfg.faultPlanReverse : plan;
            if (cfg.faultPlanReverse)
                reverse.seed = mix64(reverse.seed ^ cseed);
            conn->faultyWires =
                std::make_unique<ssl::FaultyBioPair>(plan, reverse);
            client_end = conn->faultyWires->clientEnd();
            server_end = conn->faultyWires->serverEnd();
        } else {
            conn->cleanWires = std::make_unique<ssl::BioPair>();
            client_end = conn->cleanWires->clientEnd();
            server_end = conn->cleanWires->serverEnd();
        }

        ssl::ServerConfig scfg;
        scfg.certificate = *cfg.certificate;
        scfg.privateKey = worker_key;
        scfg.suites = {cfg.suite};
        scfg.sessionCache = store;
        scfg.randomPool = &conn->serverPool;
        scfg.provider = provider;

        ssl::ClientConfig ccfg;
        ccfg.suites = {cfg.suite};
        ccfg.randomPool = &conn->clientPool;
        ccfg.provider = provider;
        // Deterministic per-connection resumption decision; falls back
        // to a full handshake until sessions exist to offer.
        if (cfg.resumeFraction > 0.0 &&
            static_cast<double>(mix64(cseed) % 1000) <
                cfg.resumeFraction * 1000.0) {
            ccfg.resumeSession = pickCompletedSession();
            conn->offeredResumption = ccfg.resumeSession.has_value();
        }

        conn->server = std::make_unique<ssl::SslServer>(
            std::move(scfg), server_end);
        conn->client = std::make_unique<ssl::SslClient>(
            std::move(ccfg), client_end);
        conn->startCycles = rdcycles();

        // Sampled flight recorder: 1-in-N connections share one ring
        // between client, server, channel and engine events. With
        // traceKeepFailures every connection records; the 1-in-N decay
        // moves to dump time so failures always survive.
        const obs::TraceSampling sampling{cfg.traceSampleEvery,
                                          cfg.traceKeepFailures};
        if (sampling.shouldRecord(serial)) {
            conn->trace = std::make_unique<obs::SessionTrace>(
                (static_cast<uint64_t>(worker_id) << 32) | serial,
                static_cast<uint32_t>(worker_id));
            conn->trace->record(obs::TraceEventKind::ConnOpen,
                                obs::traceSideEngine,
                                conn->faultyWires ? "faulty" : "clean",
                                static_cast<uint16_t>(worker_id),
                                serial);
            if (conn->faultyWires)
                conn->faultyWires->setTrace(conn->trace.get());
        }
        ssl::EndpointObsBinding server_obs;
        server_obs.registry = reg;
        server_obs.recordCounters = &recordCounters;
        server_obs.trace = conn->trace.get();
        server_obs.side = obs::traceSideServer;
        conn->server->bindObservability(server_obs);
        ssl::EndpointObsBinding client_obs;
        client_obs.registry = reg;
        // The client half counts no records: the server side already
        // counts each direction of the shared wire once. Its handles
        // do nothing, rather than default to the global registry's.
        static const ssl::RecordCounters uncounted;
        client_obs.recordCounters = &uncounted;
        client_obs.trace = conn->trace.get();
        client_obs.side = obs::traceSideClient;
        conn->client->bindObservability(client_obs);
        return conn;
    }

    /** Drive one connection as far as it can go without blocking. */
    bool
    pumpConn(Conn &c, const Bytes &payload,
             std::vector<ConstSpan> &iov, WorkerStats &stats)
    {
        bool progress = false;
        for (;;) {
            bool p = c.client->advance();
            p |= c.server->advance();
            if (c.client->handshakeDone() && c.server->handshakeDone()) {
                if (c.bulkSent < cfg.bulkBytes) {
                    if (cfg.bulkBatchRecords > 0) {
                        // Data-plane mode: one gather-send of up to
                        // bulkBatchRecords record-sized spans straight
                        // off the shared payload buffer — no per-record
                        // Bytes copy, and sweeping the shard flushes
                        // every streaming session back to back.
                        iov.clear();
                        size_t remaining = cfg.bulkBytes - c.bulkSent;
                        size_t batched = 0;
                        while (iov.size() < cfg.bulkBatchRecords &&
                               remaining) {
                            size_t n = std::min(cfg.recordBytes,
                                                remaining);
                            iov.emplace_back(payload.data(), n);
                            remaining -= n;
                            batched += n;
                        }
                        c.client->writeApplicationData(iov.data(),
                                                       iov.size());
                        c.bulkSent += batched;
                        ++stats.dataPlaneFlushes;
                        stats.dataPlaneRecords += iov.size();
                    } else {
                        size_t n = std::min(cfg.recordBytes,
                                            cfg.bulkBytes - c.bulkSent);
                        c.client->writeApplicationData(
                            Bytes(payload.begin(), payload.begin() + n));
                        c.bulkSent += n;
                    }
                    p = true;
                }
                while (auto data = c.server->readApplicationData()) {
                    c.bulkReceived += data->size();
                    stats.bulkBytesMoved += data->size();
                    p = true;
                }
            }
            if (!p)
                break;
            progress = true;
        }
        return progress;
    }

    bool
    connFinished(const Conn &c) const
    {
        return c.client->handshakeDone() && c.server->handshakeDone() &&
               c.bulkSent >= cfg.bulkBytes &&
               c.bulkReceived >= cfg.bulkBytes;
    }

    /** Has the connection outlived its phase's deadline? */
    bool
    deadlineExpired(const Conn &c, uint64_t sweep) const
    {
        const bool hs_done =
            c.client->handshakeDone() && c.server->handshakeDone();
        if (!hs_done)
            return cfg.handshakeDeadlineTicks != 0 &&
                   sweep - c.deadlineSweep > cfg.handshakeDeadlineTicks;
        return cfg.idleDeadlineTicks != 0 &&
               sweep - c.lastProgressSweep > cfg.idleDeadlineTicks;
    }

    void
    retireWires(const Conn &c, WorkerStats &stats)
    {
        if (c.faultyWires)
            stats.faultsInjected += c.faultyWires->faultsInjected();
    }

    /**
     * Kill a failed or stalled session and free its slot. abort() is
     * idempotent: a side that already died from its own SslError
     * ignores it; the survivor sends its single fatal alert and runs
     * its onFatal hook (the server's cancels any in-flight RSA job and
     * scrubs the session cache — the poisoning defense).
     */
    /** Hand a finished trace to the configured sink, if any. */
    void
    dumpTrace(const Conn &c)
    {
        if (c.trace && cfg.traceSink && c.trace->recorded())
            cfg.traceSink->dump(*c.trace);
    }

    void
    teardown(std::unique_ptr<Conn> &slot, WorkerStats &stats,
             bool timed_out)
    {
        if (timed_out && slot->trace) {
            const bool hs_done = slot->client->handshakeDone() &&
                                 slot->server->handshakeDone();
            slot->trace->record(obs::TraceEventKind::DeadlineFired,
                                obs::traceSideEngine,
                                hs_done ? "idle" : "handshake");
        }
        const Bytes sid = slot->server->session().id;
        const bool cached =
            !sid.empty() && store->find(sid).has_value();
        slot->server->abort(ssl::AlertDescription::InternalError);
        slot->client->abort(ssl::AlertDescription::InternalError);
        if (cached)
            ++stats.evictedSessions;
        if (timed_out) {
            ++stats.timedOutSessions;
            if (slot->trace)
                slot->trace->noteOutcome("timeout");
        } else {
            ++stats.failedHandshakes;
        }
        retireWires(*slot, stats);
        // The flight recorder's moment: a dead session dumps its whole
        // event history (faults, alerts, deadline) to the sink.
        dumpTrace(*slot);
        slot.reset();
    }

    /**
     * @param worker_key this worker's own replica of the configured
     *        key (see run())
     */
    void
    workerRun(size_t worker_id,
              const std::shared_ptr<crypto::RsaPrivateKey> &worker_key,
              WorkerStats &stats, std::exception_ptr &error)
    {
        try {
            const bool tolerate =
                cfg.tolerateFailures || cfg.faultPlan != nullptr;
            const Bytes payload(cfg.recordBytes, 0xab);
            std::vector<ConstSpan> iovScratch; // reused across pumps
            std::vector<std::unique_ptr<Conn>> slots(
                cfg.concurrentPerWorker);
            size_t started = 0;
            size_t completed = 0;
            const size_t target = cfg.connectionsPerWorker;

            // Per-worker probe context: crypto FuncProbes on this
            // thread report here; bridged into the registry at exit.
            perf::PerfContext perfCtx;

            // Liveness beacon for the Supervisor: stamped once per
            // sweep so a wedged worker is observable from outside.
            std::atomic<uint64_t> *heartbeat =
                cfg.supervisor
                    ? cfg.supervisor->watch(
                          "engine-worker-" + std::to_string(worker_id))
                    : nullptr;
            {
                perf::ContextScope perfScope(&perfCtx);

            while (completed < target) {
                const uint64_t sweep = ++stats.sweeps;
                if (heartbeat)
                    heartbeat->store(rdcycles(),
                                     std::memory_order_relaxed);
                bool progress = false;
                for (auto &slot : slots) {
                    if (!slot) {
                        if (started >= target)
                            continue;
                        slot = makeConn(worker_id, started++,
                                        worker_key);
                        slot->startSweep = sweep;
                        slot->deadlineSweep = sweep;
                        slot->lastProgressSweep = sweep;
                        progress = true;
                    }
                    // Wall-clock abandonment: a client only waits so
                    // long for its handshake. Checked BEFORE pumping
                    // and with no parked exemption — a session stuck
                    // behind a saturated crypto queue dies here, which
                    // is exactly the waste deadline-aware admission
                    // exists to prevent (shed before the RSA op, not
                    // after).
                    if (cfg.handshakeAbandonCycles &&
                        !(slot->client->handshakeDone() &&
                          slot->server->handshakeDone()) &&
                        rdcycles() - slot->startCycles >
                            cfg.handshakeAbandonCycles) {
                        teardown(slot, stats, /*timed_out=*/true);
                        ++completed;
                        progress = true;
                        continue;
                    }
                    // One sweep = one virtual tick: age stalled
                    // records, retry cap-deferred deliveries.
                    if (slot->faultyWires)
                        slot->faultyWires->tick();
                    if (slot->trace)
                        slot->trace->setTick(sweep);
                    bool p = false;
                    t_activeTrace = slot->trace.get();
                    // Attribute crypto submissions from this pump to
                    // their admission class: a handshake that has
                    // already parked once has RSA cycles invested
                    // (Continuation); a fresh one is the first to
                    // shed (NewFullHandshake). Resumption handshakes
                    // submit no RSA jobs, so no Resumption binding is
                    // needed here.
                    const JobClass pumpCls =
                        slot->everParked ? JobClass::Continuation
                                         : JobClass::NewFullHandshake;
                    JobBindingScope bindScope({pumpCls, 0});
                    try {
                        p = pumpConn(*slot, payload, iovScratch,
                                     stats);
                    } catch (const ssl::SslError &) {
                        t_activeTrace = nullptr;
                        if (!tolerate)
                            throw;
                        // Only SslError is tolerable: the robustness
                        // contract says every malformed-input path
                        // surfaces as exactly one — anything else is a
                        // bug and still propagates.
                        teardown(slot, stats, /*timed_out=*/false);
                        ++completed;
                        progress = true;
                        continue;
                    }
                    t_activeTrace = nullptr;
                    if (p) {
                        progress = true;
                        slot->lastProgressSweep = sweep;
                    }
                    if (!slot->hsLatencyRecorded &&
                        slot->client->handshakeDone() &&
                        slot->server->handshakeDone()) {
                        slot->hsLatencyRecorded = true;
                        const uint64_t hs_cycles =
                            rdcycles() - slot->startCycles;
                        histHandshakeCycles.record(hs_cycles);
                        histHandshakeSweeps.record(sweep -
                                                   slot->startSweep + 1);
                        // Completed, but past the point the client
                        // would have abandoned: served too late to be
                        // goodput (the Shed fallback's failure mode —
                        // the sync op always finishes its handshake,
                        // no matter how stale).
                        if (cfg.handshakeAbandonCycles &&
                            hs_cycles > cfg.handshakeAbandonCycles)
                            ++stats.lateHandshakes;
                    }
                    // Either endpoint can be parked: the server on the
                    // pre-master decrypt / SKX sign, the client on the
                    // CertificateVerify sign (mutual auth).
                    ssl::CryptoWait wait = slot->server->cryptoWait();
                    if (wait == ssl::CryptoWait::None)
                        wait = slot->client->cryptoWait();
                    if (wait != ssl::CryptoWait::None) {
                        if (!slot->parked) {
                            slot->parked = true;
                            slot->everParked = true;
                            slot->parkReason = wait;
                            ++stats.parkEvents;
                            if (wait == ssl::CryptoWait::PreMasterDecrypt)
                                ++stats.parkEventsDecrypt;
                            else
                                ++stats.parkEventsSign;
                            // Stamp the admission class the parked
                            // job was submitted under (JobClass + 1).
                            slot->parkClassCode = static_cast<uint16_t>(
                                static_cast<uint8_t>(pumpCls) + 1);
                            if (slot->trace)
                                slot->trace->record(
                                    obs::TraceEventKind::Park,
                                    obs::traceSideEngine,
                                    ssl::cryptoWaitLabel(wait),
                                    slot->parkClassCode);
                        }
                        // Parked on the pool is not a stall: neither
                        // sweep deadline ages until the result lands
                        // (queue wait is the pool's to shed). A job
                        // that completes between the pump and this
                        // poll unparks the session unpumped, so
                        // counting parked sweeps would kill it there.
                        slot->lastProgressSweep = sweep;
                        ++slot->deadlineSweep;
                        continue;
                    }
                    if (slot->parked) {
                        slot->parked = false;
                        if (slot->trace)
                            slot->trace->record(
                                obs::TraceEventKind::Resume,
                                obs::traceSideEngine,
                                ssl::cryptoWaitLabel(slot->parkReason),
                                slot->parkClassCode);
                        slot->parkReason = ssl::CryptoWait::None;
                    }
                    if (connFinished(*slot)) {
                        if (slot->server->resumed())
                            ++stats.resumedHandshakes;
                        else
                            ++stats.fullHandshakes;
                        offerCompletedSession(slot->server->session());
                        if (slot->trace) {
                            slot->trace->record(
                                obs::TraceEventKind::Complete,
                                obs::traceSideEngine,
                                slot->server->resumed() ? "resumed"
                                                        : "full");
                            slot->trace->noteOutcome("completed");
                            // Decay completed traces to the sample
                            // rate; failures dump in teardown().
                            const obs::TraceSampling sampling{
                                cfg.traceSampleEvery,
                                cfg.traceKeepFailures};
                            if (cfg.traceDumpAll ||
                                (cfg.traceKeepFailures &&
                                 sampling.shouldDump(
                                     static_cast<uint32_t>(
                                         slot->trace->serial()),
                                     "completed")))
                                dumpTrace(*slot);
                        }
                        retireWires(*slot, stats);
                        slot.reset();
                        ++completed;
                        continue;
                    }
                    if (deadlineExpired(*slot, sweep)) {
                        teardown(slot, stats, /*timed_out=*/true);
                        ++completed;
                        progress = true;
                    }
                }
                // All in-flight sessions parked on the crypto pool (or
                // momentarily idle): let the pool threads run.
                if (!progress)
                    std::this_thread::yield();
            }

            } // perfScope
            perfCtx.publishTo(*reg);
            flushWorkerStats(stats);
        } catch (...) {
            t_activeTrace = nullptr;
            error = std::current_exception();
        }
    }

    /**
     * Mirror the worker's lock-free tallies into the registry so the
     * end-of-run snapshot is self-contained. Handles are resolved by
     * name here because this runs once per worker, not per event.
     */
    void
    flushWorkerStats(const WorkerStats &stats)
    {
        auto flush = [&](const char *name, uint64_t v) {
            if (v)
                reg->counter(name).inc(v);
        };
        flush("serve.full_handshakes", stats.fullHandshakes);
        flush("serve.resumed_handshakes", stats.resumedHandshakes);
        flush("serve.bulk_bytes", stats.bulkBytesMoved);
        flush("serve.park_events", stats.parkEvents);
        flush("serve.park_events_decrypt", stats.parkEventsDecrypt);
        flush("serve.park_events_sign", stats.parkEventsSign);
        flush("serve.sweeps", stats.sweeps);
        flush("serve.failed_handshakes", stats.failedHandshakes);
        flush("serve.timed_out_sessions", stats.timedOutSessions);
        flush("serve.late_handshakes", stats.lateHandshakes);
        flush("serve.evicted_sessions", stats.evictedSessions);
        flush("serve.faults_injected", stats.faultsInjected);
        flush("serve.dataplane_flushes", stats.dataPlaneFlushes);
        flush("serve.dataplane_records", stats.dataPlaneRecords);
    }
};

ServeEngine::ServeEngine(ServeConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
    ServeConfig &cfg = impl_->cfg;
    if (!cfg.certificate || !cfg.privateKey)
        throw std::invalid_argument(
            "ServeEngine: certificate and private key required");
    if (cfg.workers == 0 || cfg.concurrentPerWorker == 0 ||
        cfg.connectionsPerWorker == 0)
        throw std::invalid_argument("ServeEngine: zero-sized workload");
    if (cfg.bulkBytes > 0 && cfg.recordBytes == 0)
        throw std::invalid_argument("ServeEngine: recordBytes == 0");
    if (cfg.recordBytes == 0)
        cfg.recordBytes = 1; // payload buffer must be non-empty

    if (cfg.faultPlan) {
        cfg.tolerateFailures = true;
        // A fault plan can silently drop records, so every session
        // needs a deadline or the run never terminates. Budget enough
        // sweeps for a handshake whose every record stalls, plus slack
        // for crypto-pool queueing.
        const uint64_t stall = cfg.faultPlan->stallTicks;
        if (cfg.handshakeDeadlineTicks == 0)
            cfg.handshakeDeadlineTicks = 64 + 16 * stall;
        if (cfg.idleDeadlineTicks == 0)
            cfg.idleDeadlineTicks = 64 + 16 * stall;
    }

    if (cfg.sessionStore) {
        impl_->store = cfg.sessionStore;
    } else {
        impl_->internalStore =
            std::make_unique<ssl::ShardedSessionCache>();
        impl_->store = impl_->internalStore.get();
    }

    // Warmed-server arrival mix: seed sessions are resumable from the
    // very first connection, on the server side (store) and the client
    // side (the resumption ring the per-connection draws pick from).
    for (const ssl::Session &s : cfg.resumptionSeed)
        if (s.valid()) {
            impl_->store->store(s);
            impl_->offerCompletedSession(s);
        }

    crypto::Provider *base =
        cfg.provider ? cfg.provider : &crypto::scalarProvider();
    if (cfg.cryptoPool) {
        impl_->pooledProvider =
            std::make_unique<PooledProvider>(*cfg.cryptoPool, base);
        impl_->provider = impl_->pooledProvider.get();
    } else {
        impl_->provider = base;
    }

    // Wire every layer into the run's registry before work flows.
    impl_->reg =
        cfg.metrics ? cfg.metrics : &obs::MetricsRegistry::global();
    impl_->reg->setEnabled(cfg.metricsEnabled);
    impl_->recordCounters = ssl::RecordCounters::resolve(*impl_->reg);
    impl_->histHandshakeCycles =
        impl_->reg->histogram("serve.handshake_cycles");
    impl_->histHandshakeSweeps =
        impl_->reg->histogram("serve.handshake_sweeps");
    if (impl_->internalStore)
        impl_->internalStore->bindMetrics(impl_->reg);
    if (cfg.cryptoPool) {
        cfg.cryptoPool->bindMetrics(impl_->reg);
        if (cfg.traceSink)
            cfg.cryptoPool->bindTraceSink(cfg.traceSink);
    }
    if (cfg.supervisor) {
        cfg.supervisor->bindMetrics(impl_->reg);
        if (cfg.traceSink)
            cfg.supervisor->bindTraceSink(cfg.traceSink);
    }
}

ServeEngine::~ServeEngine() = default;

ssl::SessionStore &
ServeEngine::sessionStore()
{
    return *impl_->store;
}

std::vector<ssl::Session>
ServeEngine::completedSessions() const
{
    std::lock_guard<std::mutex> lock(impl_->sessionsM);
    return impl_->sessions;
}

ServeStats
ServeEngine::run()
{
    const size_t n = impl_->cfg.workers;
    ServeStats stats;
    stats.perWorker.resize(n);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    threads.reserve(n);

    // Tee warn()/inform() into the active session's flight recorder
    // for the duration of the run (previous sink restored on exit).
    LogSink prevSink =
        setLogSink([](LogLevel level, const std::string &msg) {
            if (t_activeTrace)
                t_activeTrace->recordText(
                    obs::TraceEventKind::LogMessage,
                    obs::traceSideEngine,
                    (level == LogLevel::Warn ? "warn: " : "inform: ") +
                        msg);
        });

    // RsaPrivateKey carries mutable blinding and Montgomery scratch
    // (single-owner by the bn contract), so each worker decrypts with
    // its own replica of the configured key, as each CryptoPool thread
    // does. replica() keeps the key's bignum backend. They are built
    // here, because building one counts in the global registry: on a
    // worker thread that would pin a registry shard per run.
    std::vector<std::shared_ptr<crypto::RsaPrivateKey>> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i)
        keys.push_back(impl_->cfg.privateKey->replica());

    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i)
        threads.emplace_back([this, i, &keys, &stats, &errors] {
            impl_->workerRun(i, keys[i], stats.perWorker[i], errors[i]);
        });
    for (auto &t : threads)
        t.join();
    auto t1 = std::chrono::steady_clock::now();
    stats.elapsedSeconds =
        std::chrono::duration<double>(t1 - t0).count();

    setLogSink(std::move(prevSink));

    for (auto &err : errors)
        if (err)
            std::rethrow_exception(err);
    stats.metrics = impl_->reg->snapshot();
    return stats;
}

} // namespace ssla::serve
