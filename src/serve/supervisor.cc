#include "serve/supervisor.hh"

#include <algorithm>
#include <chrono>

#include "obs/export.hh"
#include "util/cycles.hh"
#include "util/logging.hh"

namespace ssla::serve
{

namespace
{

/**
 * Cycles from @p stamp to @p now. A thread may stamp after the poll
 * read its clock, so a stamp ahead of @p now is fresh, not ~2^64 old.
 */
uint64_t
ageCycles(uint64_t now, uint64_t stamp)
{
    return now > stamp ? now - stamp : 0;
}

} // anonymous namespace

Supervisor::Supervisor(CryptoPool &pool, SupervisorConfig cfg)
    : pool_(pool), cfg_(cfg)
{
    if (cfg_.stallThresholdCycles == 0)
        cfg_.stallThresholdCycles =
            static_cast<uint64_t>(cycleHz() / 10.0); // ~100 ms
    bindMetrics(nullptr);
    thread_ = std::thread([this] { loop(); });
}

Supervisor::~Supervisor()
{
    {
        std::lock_guard<std::mutex> lock(stopM_);
        stopping_ = true;
    }
    stopCv_.notify_all();
    thread_.join();
}

void
Supervisor::bindMetrics(obs::MetricsRegistry *reg)
{
    obs::MetricsRegistry &r =
        reg ? *reg : obs::MetricsRegistry::global();
    ctrRestarts_ = r.counter("supervisor.restarts");
    ctrExternalStalls_ = r.counter("supervisor.external_stalls");
}

std::atomic<uint64_t> *
Supervisor::watch(std::string label)
{
    std::lock_guard<std::mutex> lock(watchM_);
    ExternalWatch &w = watches_.emplace_back();
    w.label = std::move(label);
    w.heartbeat.store(rdcycles(), std::memory_order_relaxed);
    return &w.heartbeat;
}

void
Supervisor::poll(obs::SessionTrace &trace)
{
    const uint64_t now = rdcycles();

    // Crypto threads: a busy slot whose newest progress stamp is past
    // the stall threshold gets reaped. The pool fails the in-flight
    // job (first-wins against a slow-but-alive thread) and spawns a
    // replacement, so queued jobs keep draining and the parked session
    // terminates with an alert instead of hanging forever.
    const size_t slots = pool_.healthSlots();
    for (size_t i = 0; i < slots; ++i) {
        CryptoPool::ThreadHealthView view = pool_.healthView(i);
        if (!view.busy || view.retired)
            continue;
        const uint64_t stamp =
            std::max(view.heartbeatCycles, view.jobStartCycles);
        if (ageCycles(now, stamp) <= cfg_.stallThresholdCycles)
            continue;
        if (restarts_.load(std::memory_order_relaxed) >=
            cfg_.maxRestarts) {
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true))
                warn("Supervisor: restart budget exhausted; a wedged "
                     "crypto thread is being left in place");
            continue;
        }
        if (!pool_.reapThread(i, "heartbeat stall"))
            continue;
        restarts_.fetch_add(1, std::memory_order_relaxed);
        ctrRestarts_.inc();
        trace.record(obs::TraceEventKind::ThreadRestart,
                     obs::traceSideEngine, "crypto-thread",
                     static_cast<uint16_t>(i), now - stamp);
        warn("Supervisor: reaped stalled crypto thread slot " +
             std::to_string(i) + " (silent for " +
             std::to_string(now - stamp) + " cycles), respawned");
    }

    // External (engine-worker) slots: count stall episodes; an engine
    // worker shares the process, so there is nothing to respawn.
    {
        std::lock_guard<std::mutex> lock(watchM_);
        for (ExternalWatch &w : watches_) {
            const uint64_t hb =
                w.heartbeat.load(std::memory_order_relaxed);
            const bool stale =
                ageCycles(now, hb) > cfg_.stallThresholdCycles;
            if (stale && !w.stalledNow) {
                w.stalledNow = true;
                externalStalls_.fetch_add(1, std::memory_order_relaxed);
                ctrExternalStalls_.inc();
                warn("Supervisor: external heartbeat '" + w.label +
                     "' stalled");
            } else if (!stale) {
                w.stalledNow = false;
            }
        }
    }

    polls_.fetch_add(1, std::memory_order_relaxed);
}

void
Supervisor::loop()
{
    obs::SessionTrace trace(obs::supervisorTrack, obs::supervisorTrack);
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(stopM_);
            stopCv_.wait_for(
                lock, std::chrono::microseconds(cfg_.pollIntervalUs),
                [&] { return stopping_; });
            if (stopping_)
                break;
        }
        poll(trace);
    }
    trace.noteOutcome("supervisor-exit");
    if (obs::TraceSink *sink = traceSink_.load(std::memory_order_acquire);
        sink && trace.recorded())
        sink->dump(trace);
}

} // namespace ssla::serve
