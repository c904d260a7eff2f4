#include "serve/cryptopool.hh"

#include <algorithm>
#include <unordered_map>

#include "obs/export.hh"
#include "util/cycles.hh"

namespace ssla::serve
{

namespace
{

/** Display label for a pool thread's trace span. */
const char *
jobKindLabel(int kind)
{
    switch (kind) {
      case 0: return "rsa_decrypt";
      case 1: return "rsa_sign";
      default: return "raw";
    }
}

/**
 * Per-thread fault PRNG, mirroring the FaultyBio idiom: splitmix64 on
 * the seed, then xorshift for the per-job Bernoulli draws, so fault
 * streams are deterministic per (plan seed, thread slot) and replayable
 * by SSLA_CHAOS_SEED-style machinery.
 */
class FaultRng
{
  public:
    explicit FaultRng(uint64_t seed) : s_(mix(seed)) {}

    static uint64_t
    mix(uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return (x ^ (x >> 31)) | 1;
    }

    double
    nextDouble()
    {
        s_ ^= s_ << 13;
        s_ ^= s_ >> 7;
        s_ ^= s_ << 17;
        return static_cast<double>(s_ >> 11) * 0x1.0p-53;
    }

  private:
    uint64_t s_;
};

thread_local JobBinding tlsJobBinding;

/**
 * Bound on per-thread key replicas: the serving engine uses one server
 * key (occasionally two across a rotation), so eight covers real use
 * while guaranteeing key churn cannot leak Montgomery scratch.
 */
constexpr size_t maxReplicasPerThread = 8;

} // anonymous namespace

const char *
jobClassLabel(JobClass cls)
{
    switch (cls) {
      case JobClass::Resumption: return "resumption";
      case JobClass::Continuation: return "continuation";
      case JobClass::NewFullHandshake: return "new_full";
    }
    return "unknown";
}

JobBinding
currentJobBinding()
{
    return tlsJobBinding;
}

JobBindingScope::JobBindingScope(JobBinding binding) : prev_(tlsJobBinding)
{
    tlsJobBinding = binding;
}

JobBindingScope::~JobBindingScope()
{
    tlsJobBinding = prev_;
}

CryptoPool::CryptoPool(size_t threads, size_t max_queue,
                       OverloadPolicy policy, AdmissionControl admission,
                       CryptoFaultPlan faults)
    : threads_(threads == 0 ? 1 : threads), maxQueue_(max_queue),
      policy_(policy), adm_(admission), faults_(faults)
{
    if (policy_ == OverloadPolicy::Adaptive) {
        // Adaptive defaults: ~2ms CoDel target (a handshake-scale
        // delay: past it, queue wait rivals the RSA op itself), control
        // interval of two targets, and a per-job wait budget of eight
        // targets — by then the session's handshake deadline is blown
        // and executing the job would be pure waste.
        if (adm_.targetDelayCycles == 0)
            adm_.targetDelayCycles =
                static_cast<uint64_t>(cycleHz() / 500.0);
        if (adm_.intervalCycles == 0)
            adm_.intervalCycles = 2 * adm_.targetDelayCycles;
        if (adm_.deadlineBudgetCycles == 0)
            adm_.deadlineBudgetCycles = 8 * adm_.targetDelayCycles;
    } else if (adm_.targetDelayCycles != 0 && adm_.intervalCycles == 0) {
        adm_.intervalCycles = 2 * adm_.targetDelayCycles;
    }
    deathBudget_.store(faults_.maxThreadDeaths, std::memory_order_relaxed);
    intervalStartCycles_ = rdcycles();
    bindMetrics(nullptr);
    workers_.reserve(threads_);
    for (size_t i = 0; i < threads_; ++i)
        spawnWorker();
}

void
CryptoPool::spawnWorker()
{
    std::lock_guard<std::mutex> lock(healthM_);
    size_t index = health_.size();
    ThreadRecord &rec = health_.emplace_back();
    rec.faultSeed = FaultRng::mix(faults_.seed ^ (index + 1));
    rec.heartbeat.store(rdcycles(), std::memory_order_relaxed);
    workers_.emplace_back([this, index] { workerLoop(index); });
}

void
CryptoPool::bindMetrics(obs::MetricsRegistry *reg)
{
    obs::MetricsRegistry &r =
        reg ? *reg : obs::MetricsRegistry::global();
    histQueueWait_ = r.histogram("cryptopool.queue_wait_cycles");
    histService_ = r.histogram("cryptopool.service_cycles");
    ctrCompleted_ = r.counter("cryptopool.completed");
    ctrRejected_ = r.counter("cryptopool.rejected");
    ctrShed_ = r.counter("cryptopool.shed");
    ctrCancelled_ = r.counter("cryptopool.cancelled");
    ctrDeadlineShed_ = r.counter("cryptopool.deadline_shed");
    ctrShedClass_[0] = r.counter("cryptopool.shed_class_resumption");
    ctrShedClass_[1] = r.counter("cryptopool.shed_class_continuation");
    ctrShedClass_[2] = r.counter("cryptopool.shed_class_new_full");
    ctrRestarts_ = r.counter("cryptopool.thread_restarts");
    ctrSupervisedFailures_ = r.counter("cryptopool.supervised_failures");
    gaugeDepth_ = r.gauge("cryptopool.queue_depth");
    gaugeShedding_ = r.gauge("cryptopool.adaptive_shedding");
}

CryptoPool::~CryptoPool()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stopping_ = true;
    }
    cv_.notify_all();
    // Joins every thread ever spawned, including retired zombies (they
    // exit after at most one more job) and replacements. Threads that
    // took a simulated-death fault have already returned.
    for (auto &w : workers_)
        w.join();
}

size_t
CryptoPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(m_);
    return queue_.size();
}

bool
CryptoPool::adaptiveRefuses(JobClass cls) const
{
    switch (cls) {
      case JobClass::NewFullHandshake:
        return sheddingNewFull_.load(std::memory_order_relaxed);
      case JobClass::Continuation:
        return sheddingContinuation_.load(std::memory_order_relaxed);
      case JobClass::Resumption:
        return false;
    }
    return false;
}

void
CryptoPool::countClassShed(JobClass cls)
{
    shedClass_[static_cast<size_t>(cls)].fetch_add(
        1, std::memory_order_relaxed);
    ctrShedClass_[static_cast<size_t>(cls)].inc();
}

void
CryptoPool::controlUpdate(uint64_t now, uint64_t wait_cycles)
{
    // Caller holds m_. Feed the wait sample into the window; at every
    // observation-interval boundary recompute the windowed p99 and flip
    // the per-class shedding flags with hysteresis.
    if (adm_.targetDelayCycles == 0)
        return;
    waitSamples_[waitSampleCount_ % waitWindow] = wait_cycles;
    ++waitSampleCount_;
    if (now - intervalStartCycles_ < adm_.intervalCycles)
        return;
    controlRecompute(now);
}

void
CryptoPool::controlRecompute(uint64_t now)
{
    size_t n = std::min(waitSampleCount_, waitWindow);
    if (n == 0)
        return;
    uint64_t sorted[waitWindow];
    std::copy(waitSamples_, waitSamples_ + n, sorted);
    std::sort(sorted, sorted + n);
    uint64_t p99 = sorted[(n * 99) / 100 >= n ? n - 1 : (n * 99) / 100];
    waitP99_.store(p99, std::memory_order_relaxed);
    if (p99 > adm_.targetDelayCycles) {
        sheddingNewFull_.store(true, std::memory_order_relaxed);
        sheddingContinuation_.store(p99 > 2 * adm_.targetDelayCycles,
                                    std::memory_order_relaxed);
    } else if (p99 < adm_.targetDelayCycles / 2) {
        sheddingNewFull_.store(false, std::memory_order_relaxed);
        sheddingContinuation_.store(false, std::memory_order_relaxed);
    }
    gaugeShedding_.set(
        sheddingNewFull_.load(std::memory_order_relaxed) ? 1 : 0);
    intervalStartCycles_ = now;
    intervalSampleMark_ = waitSampleCount_;
}

void
CryptoPool::controlTouchIdle(uint64_t now)
{
    // Caller holds m_. Dequeues drive the control loop; when the queue
    // drains completely, no samples arrive and a stale "shedding" flag
    // would refuse admissions forever. An empty queue at submit time
    // with a full quiet interval behind it means the pressure is gone.
    if (adm_.targetDelayCycles == 0 || !queue_.empty())
        return;
    if (now - intervalStartCycles_ < adm_.intervalCycles)
        return;
    if (waitSampleCount_ != intervalSampleMark_) {
        // Samples arrived this interval, but the dequeue side never
        // crossed a boundary (lone quick jobs reset nothing): recompute
        // from the window here, so a recovering pool can clear its
        // shedding flags even when jobs arrive one at a time.
        controlRecompute(now);
        return;
    }
    sheddingNewFull_.store(false, std::memory_order_relaxed);
    sheddingContinuation_.store(false, std::memory_order_relaxed);
    waitP99_.store(0, std::memory_order_relaxed);
    gaugeShedding_.set(0);
    intervalStartCycles_ = now;
}

crypto::RsaJob
CryptoPool::enqueue(Job job)
{
    const JobBinding binding = tlsJobBinding;
    job.cls = binding.cls;
    job.state = std::make_shared<crypto::RsaJob::State>();
    crypto::RsaJob handle(job.state);
    {
        std::lock_guard<std::mutex> lock(m_);
        uint64_t now = rdcycles();
        controlTouchIdle(now);
        if (policy_ == OverloadPolicy::Adaptive &&
            adaptiveRefuses(job.cls)) {
            // Control loop says queue wait is past target: losing this
            // handshake now costs nothing but the ClientHello already
            // parsed; losing it after the RSA op costs the whole op.
            countClassShed(job.cls);
            rejected_.fetch_add(1, std::memory_order_relaxed);
            ctrRejected_.inc();
            job.state->finish(
                Bytes(),
                std::make_exception_ptr(crypto::ProviderOverloadError(
                    "CryptoPool: adaptive admission shed")));
            return handle;
        }
        if (maxQueue_ && queue_.size() >= maxQueue_) {
            // Overload: the bound is checked under the same lock that
            // admits jobs, so concurrent submitters cannot overshoot.
            if (policy_ == OverloadPolicy::Reject ||
                (policy_ == OverloadPolicy::Adaptive &&
                 job.cls == JobClass::NewFullHandshake)) {
                countClassShed(job.cls);
                rejected_.fetch_add(1, std::memory_order_relaxed);
                ctrRejected_.inc();
                job.state->finish(
                    Bytes(),
                    std::make_exception_ptr(crypto::ProviderOverloadError(
                        "CryptoPool: queue full")));
                return handle;
            }
            // Shed (and Adaptive for already-invested classes): hand
            // the work back to the caller (synchronous fallback in
            // PooledProvider) via an invalid handle.
            countClassShed(job.cls);
            shed_.fetch_add(1, std::memory_order_relaxed);
            ctrShed_.inc();
            return crypto::RsaJob();
        }
        job.submitCycles = now;
        uint64_t budget = binding.deadlineBudgetCycles
                              ? binding.deadlineBudgetCycles
                              : adm_.deadlineBudgetCycles;
        job.deadlineCycles = budget ? now + budget : 0;
        queue_.push_back(std::move(job));
        uint64_t depth = queue_.size();
        gaugeDepth_.set(static_cast<int64_t>(depth));
        if (depth > peakQueue_.load(std::memory_order_relaxed))
            peakQueue_.store(depth, std::memory_order_relaxed);
    }
    cv_.notify_one();
    return handle;
}

crypto::RsaJob
CryptoPool::submitDecrypt(const crypto::RsaPrivateKey &key, Bytes cipher)
{
    Job job;
    job.kind = Kind::Decrypt;
    job.key = &key;
    job.input = std::move(cipher);
    return enqueue(std::move(job));
}

crypto::RsaJob
CryptoPool::submitSign(const crypto::RsaPrivateKey &key,
                       Bytes digest_data)
{
    Job job;
    job.kind = Kind::Sign;
    job.key = &key;
    job.input = std::move(digest_data);
    return enqueue(std::move(job));
}

crypto::RsaJob
CryptoPool::submitRaw(std::function<Bytes()> fn)
{
    Job job;
    job.kind = Kind::Raw;
    job.fn = std::move(fn);
    return enqueue(std::move(job));
}

size_t
CryptoPool::healthSlots() const
{
    std::lock_guard<std::mutex> lock(healthM_);
    return health_.size();
}

CryptoPool::ThreadRecord *
CryptoPool::recordAt(size_t index) const
{
    // Deque elements have stable addresses, but indexing concurrently
    // with a respawn's emplace_back races on the deque internals, so
    // the lookup itself takes healthM_ (the growth lock).
    std::lock_guard<std::mutex> lock(healthM_);
    if (index >= health_.size())
        return nullptr;
    return const_cast<ThreadRecord *>(&health_[index]);
}

CryptoPool::ThreadHealthView
CryptoPool::healthView(size_t index) const
{
    ThreadHealthView view;
    const ThreadRecord *rec = recordAt(index);
    if (!rec)
        return view;
    view.heartbeatCycles = rec->heartbeat.load(std::memory_order_relaxed);
    view.jobStartCycles = rec->jobStart.load(std::memory_order_relaxed);
    view.busy = rec->busy.load(std::memory_order_relaxed);
    view.retired = rec->retired.load(std::memory_order_relaxed);
    return view;
}

bool
CryptoPool::reapThread(size_t index, const char *reason)
{
    ThreadRecord *recp = recordAt(index);
    if (!recp)
        return false;
    ThreadRecord &rec = *recp;
    std::shared_ptr<crypto::RsaJob::State> victim;
    {
        // m_ serializes retirement against the worker's job pickup
        // (pickup registers inflight under m_ too): either the worker
        // sees retired before taking another job, or we see — and fail
        // — the job it took. No job can slip through unsupervised.
        std::lock_guard<std::mutex> lock(m_);
        if (rec.retired.exchange(true, std::memory_order_acq_rel))
            return false;
        std::lock_guard<std::mutex> jlock(rec.jobM);
        victim = rec.inflight;
    }
    if (victim) {
        // First-wins with the worker itself: if the thread is merely
        // slow (not dead) and completes concurrently, one side's
        // finish() no-ops and the session sees a single resolution.
        supervisedFailures_.fetch_add(1, std::memory_order_relaxed);
        ctrSupervisedFailures_.inc();
        victim->finish(
            Bytes(), std::make_exception_ptr(crypto::ProviderFailureError(
                         std::string("CryptoPool: thread reaped: ") +
                         (reason ? reason : "stall"))));
    }
    // Wake every waiter: a retired-but-alive zombie idling on the
    // condition variable must re-check its flag and exit.
    cv_.notify_all();
    threadRestarts_.fetch_add(1, std::memory_order_relaxed);
    ctrRestarts_.inc();
    spawnWorker();
    return true;
}

void
CryptoPool::workerLoop(size_t index)
{
    ThreadRecord &rec = *recordAt(index);
    FaultRng rng(rec.faultSeed);

    // Flight recorder for this pool thread: one span per executed job,
    // on its own export track so crypto service time lines up against
    // the worker tracks in the Chrome trace. Cheap enough to keep
    // unconditionally; only dumped when a sink is bound at exit.
    obs::SessionTrace trace(obs::cryptoTrackBase + index,
                            obs::cryptoTrackBase + index);

    // Per-thread private-key replicas, keyed by the submitter's key
    // object. Cloning rebuilds the Montgomery contexts and blinding
    // state, so this thread owns every mutable buffer it touches (the
    // bn-layer single-owner contract); decrypt/sign results are
    // unaffected because the private-key operation is deterministic
    // modulo blinding, which cancels by construction. The cache is
    // bounded: past maxReplicasPerThread the oldest replica is evicted,
    // so key churn cannot leak Montgomery scratch.
    std::unordered_map<const crypto::RsaPrivateKey *,
                       std::unique_ptr<crypto::RsaPrivateKey>>
        replicas;
    std::vector<const crypto::RsaPrivateKey *> replicaOrder;
    auto replica =
        [&](const crypto::RsaPrivateKey *key) -> crypto::RsaPrivateKey & {
        auto it = replicas.find(key);
        if (it == replicas.end()) {
            if (replicas.size() >= maxReplicasPerThread) {
                replicas.erase(replicaOrder.front());
                replicaOrder.erase(replicaOrder.begin());
                replicas_.fetch_sub(1, std::memory_order_relaxed);
            }
            // replica() keeps the source key's bn engine, so a bn64 key
            // stays bn64 across the pool and a paper-era bn32 key keeps
            // its profiling anchor.
            it = replicas.emplace(key, key->replica()).first;
            replicaOrder.push_back(key);
            replicas_.fetch_add(1, std::memory_order_relaxed);
        }
        return *it->second;
    };
    // Balance the replica count on every exit path — normal drain,
    // retired zombies, and even simulated-death returns (the job stays
    // unresolved like a real crash, but the accounting stays exact so
    // the leak test can assert on it).
    struct ReplicaUnwind
    {
        std::atomic<uint64_t> &count;
        std::unordered_map<const crypto::RsaPrivateKey *,
                           std::unique_ptr<crypto::RsaPrivateKey>> &map;
        ~ReplicaUnwind()
        {
            count.fetch_sub(map.size(), std::memory_order_relaxed);
        }
    } unwind{replicas_, replicas};

    for (;;) {
        rec.heartbeat.store(rdcycles(), std::memory_order_relaxed);
        Job job;
        uint64_t startCycles = 0;
        {
            std::unique_lock<std::mutex> lock(m_);
            cv_.wait(lock, [&] {
                return stopping_ ||
                       rec.retired.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (rec.retired.load(std::memory_order_relaxed))
                break;
            if (queue_.empty())
                break; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            gaugeDepth_.set(static_cast<int64_t>(queue_.size()));
            startCycles = rdcycles();
            controlUpdate(startCycles, startCycles - job.submitCycles);
            // Register the in-flight job before releasing m_ so a
            // concurrent reapThread (which also holds m_) either
            // retires us before this pickup or sees this job.
            std::lock_guard<std::mutex> jlock(rec.jobM);
            rec.inflight = job.state;
            rec.jobStart.store(startCycles, std::memory_order_relaxed);
            rec.busy.store(true, std::memory_order_relaxed);
        }
        histQueueWait_.record(startCycles - job.submitCycles);
        auto clearInflight = [&] {
            std::lock_guard<std::mutex> jlock(rec.jobM);
            rec.inflight.reset();
            rec.busy.store(false, std::memory_order_relaxed);
        };
        if (job.state->cancelled.load(std::memory_order_acquire)) {
            // The submitter tore the session down while the job was
            // queued: skip execution entirely — in particular, never
            // touch job.key, whose owner may already be gone — but
            // still finish() so a straggling waiter unblocks.
            cancelled_.fetch_add(1, std::memory_order_relaxed);
            ctrCancelled_.inc();
            job.state->finish(
                Bytes(), std::make_exception_ptr(std::runtime_error(
                             "CryptoPool: job cancelled")));
            clearInflight();
            continue;
        }
        if (job.deadlineCycles && startCycles > job.deadlineCycles) {
            // Deadline shed: the job waited past its budget, so its
            // session's handshake deadline is already blown — spending
            // a Montgomery context on it now is pure waste. Fail it
            // before execution; the endpoint maps the overload family
            // to a fatal internal_error alert.
            deadlineShed_.fetch_add(1, std::memory_order_relaxed);
            ctrDeadlineShed_.inc();
            countClassShed(job.cls);
            trace.record(obs::TraceEventKind::DeadlineFired,
                         obs::traceSideEngine, jobClassLabel(job.cls),
                         static_cast<uint16_t>(
                             static_cast<uint8_t>(job.cls) + 1),
                         startCycles - job.submitCycles);
            job.state->finish(
                Bytes(),
                std::make_exception_ptr(crypto::ProviderDeadlineError(
                    "CryptoPool: queue wait exceeded deadline budget")));
            clearInflight();
            continue;
        }
        // Crypto-side fault surface (chaos tests): draw once per job.
        std::exception_ptr err;
        if (faults_.any()) {
            if (faults_.threadDeathRate > 0.0 &&
                rng.nextDouble() < faults_.threadDeathRate) {
                uint64_t budget =
                    deathBudget_.load(std::memory_order_relaxed);
                while (budget != 0 &&
                       !deathBudget_.compare_exchange_weak(
                           budget, budget - 1,
                           std::memory_order_relaxed))
                    ;
                if (budget != 0) {
                    // Simulated crash: exit without resolving the job
                    // or clearing busy/inflight — exactly the state a
                    // dead thread leaves behind. Only the Supervisor
                    // can recover the parked session from here.
                    return;
                }
            }
            if (faults_.failRate > 0.0 &&
                rng.nextDouble() < faults_.failRate)
                err = std::make_exception_ptr(std::runtime_error(
                    "CryptoPool: injected job failure"));
            if (faults_.slowdownRate > 0.0 &&
                rng.nextDouble() < faults_.slowdownRate) {
                // Spin without heartbeating: to the Supervisor this is
                // indistinguishable from a genuinely wedged thread.
                uint64_t until = rdcycles() + faults_.slowdownCycles;
                while (rdcycles() < until)
                    ;
            }
        }
        // code carries the admission class (JobClass + 1, 0 = unknown)
        // so the queue-delay analysis pass can split wait/service per
        // class without joining back to the submitting session.
        trace.record(obs::TraceEventKind::JobStart,
                     obs::traceSideEngine,
                     jobKindLabel(static_cast<int>(job.kind)),
                     static_cast<uint16_t>(
                         static_cast<uint8_t>(job.cls) + 1),
                     startCycles - job.submitCycles);
        Bytes result;
        if (!err) {
            try {
                switch (job.kind) {
                  case Kind::Decrypt:
                    result = crypto::rsaPrivateDecrypt(replica(job.key),
                                                       job.input);
                    break;
                  case Kind::Sign:
                    result = crypto::rsaSign(replica(job.key), job.input);
                    break;
                  case Kind::Raw:
                    result = job.fn();
                    break;
                }
            } catch (...) {
                err = std::current_exception();
            }
        }
        uint64_t endCycles = rdcycles();
        histService_.record(endCycles - startCycles);
        trace.record(obs::TraceEventKind::JobEnd, obs::traceSideEngine,
                     jobKindLabel(static_cast<int>(job.kind)),
                     err ? 1 : 0, endCycles - startCycles);
        // Count before finish(): a waiter released by finish() must
        // already observe this job in completedJobs().
        completed_.fetch_add(1, std::memory_order_relaxed);
        ctrCompleted_.inc();
        job.state->finish(std::move(result), std::move(err));
        clearInflight();
        if (rec.retired.load(std::memory_order_acquire))
            break; // reaped while running: a replacement exists, bow out
    }

    trace.noteOutcome("pool-exit");
    if (obs::TraceSink *sink =
            traceSink_.load(std::memory_order_acquire);
        sink && trace.recorded())
        sink->dump(trace);
}

// ---------------------------------------------------------------------
// PooledProvider

PooledProvider::PooledProvider(CryptoPool &pool, crypto::Provider *inner)
    : pool_(pool), inner_(inner ? *inner : crypto::scalarProvider())
{
}

std::unique_ptr<crypto::Cipher>
PooledProvider::createCipher(crypto::CipherAlg alg, const Bytes &key,
                             const Bytes &iv, bool encrypt)
{
    return inner_.createCipher(alg, key, iv, encrypt);
}

std::unique_ptr<crypto::Digest>
PooledProvider::createDigest(crypto::DigestAlg alg)
{
    return inner_.createDigest(alg);
}

std::unique_ptr<crypto::Hmac>
PooledProvider::createHmac(crypto::DigestAlg alg, const Bytes &key)
{
    return inner_.createHmac(alg, key);
}

size_t
PooledProvider::recordMac(const crypto::RecordMacSpec &spec, uint64_t seq,
                          uint8_t type, ConstSpan data, uint8_t *mac_out)
{
    return inner_.recordMac(spec, seq, type, data, mac_out);
}

Bytes
PooledProvider::rsaDecrypt(const crypto::RsaPrivateKey &key,
                           const Bytes &cipher)
{
    return inner_.rsaDecrypt(key, cipher);
}

Bytes
PooledProvider::rsaSign(const crypto::RsaPrivateKey &key,
                        const Bytes &digest_data)
{
    return inner_.rsaSign(key, digest_data);
}

crypto::RsaJob
PooledProvider::submitRsaDecrypt(const crypto::RsaPrivateKey &key,
                                 Bytes cipher)
{
    crypto::RsaJob job = pool_.submitDecrypt(key, cipher);
    if (job.valid())
        return job;
    // Shed policy, queue full: degrade to the synchronous baseline on
    // the submitting worker. Safe with @p key: the caller owns it and
    // we are on the caller's thread (the pool only ever runs clones).
    return Provider::submitRsaDecrypt(key, std::move(cipher));
}

crypto::RsaJob
PooledProvider::submitRsaSign(const crypto::RsaPrivateKey &key,
                              Bytes digest_data)
{
    crypto::RsaJob job = pool_.submitSign(key, digest_data);
    if (job.valid())
        return job;
    return Provider::submitRsaSign(key, std::move(digest_data));
}

} // namespace ssla::serve
