/**
 * @file
 * Asynchronous RSA private-key engine for the serving layer.
 *
 * Table 2 puts ~90% of a full handshake in the RSA pre-master decrypt;
 * Section 6.2's asynchronous-engine argument is that the processor
 * should "do other useful work while the crypto operation is being
 * executed". The CryptoPool realizes that across sessions: accept-path
 * workers submit private-key operations and keep multiplexing their
 * other connections; pool threads complete the jobs and the parked
 * sessions resume on the worker's next visit.
 *
 * Beyond the queue itself, the pool is the admission point of the
 * overload control loop (DESIGN.md §4i): jobs carry a class
 * (resumption / continuation / new-full-handshake) and an enqueue
 * stamp, a CoDel-style target queue delay sheds jobs whose wait
 * already exceeded their deadline budget *before* they burn a
 * Montgomery context, and the Adaptive overload policy flips per-class
 * admission from the measured queue-wait p99. A Supervisor (see
 * serve/supervisor.hh) watches per-thread heartbeats through the
 * health hooks below and respawns a thread that dies or stalls
 * mid-job, failing the in-flight job so no session ever hangs.
 *
 * THREAD OWNERSHIP: RsaPrivateKey (blinding state) and its embedded
 * MontgomeryCtx scratch are single-owner by design (see
 * bn/montgomery.hh). The pool therefore never runs a caller's key
 * object — each pool thread lazily clones a private replica from the
 * key's components and uses only that, so N pool threads give N-way
 * RSA parallelism with no locks in the hot path. Replica caches are
 * bounded (oldest evicted) so key churn cannot leak scratch.
 */

#ifndef SSLA_SERVE_CRYPTOPOOL_HH
#define SSLA_SERVE_CRYPTOPOOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "crypto/provider.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace ssla::serve
{

/**
 * What a full CryptoPool queue does with new work. A saturated pool is
 * the expected state of an overloaded server — the policy decides
 * whether the excess handshake fails fast or degrades to the paper's
 * baseline synchronous decrypt.
 */
enum class OverloadPolicy
{
    /**
     * Refuse the job: it resolves immediately with a
     * crypto::ProviderOverloadError, which the server surfaces as a
     * fatal internal_error alert. Keeps worker latency flat; sheds
     * whole sessions.
     */
    Reject,
    /**
     * Return an invalid job; PooledProvider falls back to computing
     * synchronously on the submitting worker (the pre-offload
     * baseline). Every session completes; worker throughput degrades
     * smoothly instead of cliffing.
     */
    Shed,
    /**
     * Class-aware control loop: when the measured queue-wait p99
     * exceeds the CoDel target delay, new-full-handshake jobs are
     * refused fast (cheapest point to lose a session: before its RSA
     * cycles are spent) while continuation and resumption jobs stay
     * admitted — shed-late work is pure waste, so work already
     * invested in a handshake gets priority. Under extreme pressure
     * (p99 past twice the target) continuations shed too. The flags
     * clear with hysteresis once the p99 falls below half the target.
     */
    Adaptive,
};

/**
 * Priority class of a submitted job — who loses when RSA cycles run
 * short. Resumption work is cheapest and never shed at admission;
 * continuation work (a handshake that already consumed crypto cycles)
 * sheds only under extreme pressure; a brand-new full handshake is the
 * first to go, because refusing it wastes the least invested work.
 */
enum class JobClass : uint8_t
{
    Resumption = 0,
    Continuation = 1,
    NewFullHandshake = 2,
};

constexpr size_t jobClassCount = 3;

/** Display label for a job class ("resumption", ...). */
const char *jobClassLabel(JobClass cls);

/**
 * Thread-local attribution a submitter attaches to jobs it is about to
 * submit. The Provider interface cannot carry per-call class info
 * (endpoints submit through the generic submitRsaDecrypt/submitRsaSign
 * surface), so the serving engine binds the class for the duration of
 * one session pump and the pool reads it at enqueue.
 */
struct JobBinding
{
    JobClass cls = JobClass::NewFullHandshake;
    /**
     * Queue-wait budget for jobs submitted under this binding, in
     * cycles (0 = the pool's AdmissionControl default). A job whose
     * wait exceeds the budget is shed at dequeue with
     * crypto::ProviderDeadlineError instead of executed.
     */
    uint64_t deadlineBudgetCycles = 0;
};

/** The calling thread's current binding (defaults apply when unset). */
JobBinding currentJobBinding();

/** RAII scope setting the calling thread's JobBinding. */
class JobBindingScope
{
  public:
    explicit JobBindingScope(JobBinding binding);
    ~JobBindingScope();
    JobBindingScope(const JobBindingScope &) = delete;
    JobBindingScope &operator=(const JobBindingScope &) = delete;

  private:
    JobBinding prev_;
};

/**
 * Deadline-aware admission parameters (all in cycles, the pool's
 * native clock). Zeros select defaults when the policy is Adaptive
 * and disable the respective mechanism otherwise, preserving the
 * PR 4 Reject/Shed behavior bit-for-bit unless asked.
 */
struct AdmissionControl
{
    /**
     * CoDel-style target queue delay: the admission control loop aims
     * to keep the queue-wait p99 at or below this. 0 = default
     * (~2 ms) under Adaptive, control loop off otherwise.
     */
    uint64_t targetDelayCycles = 0;
    /** Observation interval for the p99 estimate (0 = 2x target). */
    uint64_t intervalCycles = 0;
    /**
     * Default per-job queue-wait budget: a job that waited longer is
     * dead on dequeue (its session's handshake deadline is blown, so
     * executing it is pure waste) and fails with
     * crypto::ProviderDeadlineError. 0 = 8x target under Adaptive,
     * deadline shedding off otherwise. Per-job bindings override.
     */
    uint64_t deadlineBudgetCycles = 0;
};

/**
 * Seeded crypto-side fault surface, mirroring ssl::FaultPlan for the
 * wire: per-job Bernoulli draws from a per-thread PRNG make a pool
 * thread misbehave deterministically, so chaos tests can kill a crypto
 * thread mid-job and assert the Supervisor heals the pool. All rates
 * are probabilities in [0,1].
 */
struct CryptoFaultPlan
{
    /** Job executes only after spinning this many extra cycles. */
    double slowdownRate = 0.0;
    uint64_t slowdownCycles = 0;
    /** Job fails with a runtime_error (engine fault, not overload). */
    double failRate = 0.0;
    /**
     * The executing thread dies mid-job: it exits without resolving
     * the job, leaving its health record busy — exactly what a crashed
     * thread leaves behind. Only a Supervisor recovers from this.
     */
    double threadDeathRate = 0.0;
    /** Total thread deaths allowed (deterministic test budget). */
    uint64_t maxThreadDeaths = UINT64_MAX;
    uint64_t seed = 0xfa017;

    bool
    any() const
    {
        return slowdownRate > 0.0 || failRate > 0.0 ||
               threadDeathRate > 0.0;
    }
};

/** A pool of crypto threads completing submitted RSA operations. */
class CryptoPool
{
  public:
    /**
     * @param threads number of crypto threads (min 1)
     * @param max_queue queued-job bound (0 = unbounded, the pre-hardening
     *        behavior); in-flight jobs do not count against it
     * @param policy what submits do when the queue is at the bound
     * @param admission deadline/target-delay knobs (see AdmissionControl)
     * @param faults crypto-side fault injection (tests/chaos only)
     */
    explicit CryptoPool(size_t threads = 1, size_t max_queue = 0,
                        OverloadPolicy policy = OverloadPolicy::Reject,
                        AdmissionControl admission = {},
                        CryptoFaultPlan faults = {});

    /**
     * Drains nothing: pending jobs are completed before exit. A
     * Supervisor watching this pool must be destroyed first.
     */
    ~CryptoPool();

    CryptoPool(const CryptoPool &) = delete;
    CryptoPool &operator=(const CryptoPool &) = delete;

    /**
     * Queue a PKCS#1 v1.5 decryption of @p cipher under (a per-thread
     * replica of) @p key. @p key must outlive the returned job (or the
     * job must be cancel()ed before the key dies; a cancelled queued
     * job is never executed). When the queue is at its bound the
     * overload policy applies: Reject returns a job already failed
     * with ProviderOverloadError; Shed returns an INVALID job and the
     * caller must compute synchronously; Adaptive decides per class
     * (see OverloadPolicy::Adaptive). The job is attributed to the
     * calling thread's JobBinding.
     */
    crypto::RsaJob submitDecrypt(const crypto::RsaPrivateKey &key,
                                 Bytes cipher);

    /** Queue a PKCS#1 type-1 signature over @p digest_data. */
    crypto::RsaJob submitSign(const crypto::RsaPrivateKey &key,
                              Bytes digest_data);

    /**
     * Queue an arbitrary producer (test hook: lets a test hold a job
     * open to observe the parking protocol deterministically).
     */
    crypto::RsaJob submitRaw(std::function<Bytes()> fn);

    /** Configured thread count (replacements keep it constant). */
    size_t threadCount() const { return threads_; }
    size_t maxQueue() const { return maxQueue_; }
    OverloadPolicy policy() const { return policy_; }
    const AdmissionControl &admission() const { return adm_; }

    /** Jobs currently queued (racy snapshot; monitoring only). */
    size_t queueDepth() const;

    /** Jobs completed since construction (monitoring). */
    uint64_t completedJobs() const
    {
        return completed_.load(std::memory_order_relaxed);
    }

    /** Submits refused under the Reject policy. */
    uint64_t rejectedJobs() const
    {
        return rejected_.load(std::memory_order_relaxed);
    }

    /** Submits pushed back to the caller under the Shed policy. */
    uint64_t shedJobs() const
    {
        return shed_.load(std::memory_order_relaxed);
    }

    /** Queued jobs skipped because they were cancelled first. */
    uint64_t cancelledJobs() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /** High-water mark of the queue depth. */
    uint64_t peakQueueDepth() const
    {
        return peakQueue_.load(std::memory_order_relaxed);
    }

    /** Jobs shed at dequeue because their queue wait blew the budget. */
    uint64_t deadlineShedJobs() const
    {
        return deadlineShed_.load(std::memory_order_relaxed);
    }

    /** Admission-refused jobs of @p cls (Adaptive + queue-bound). */
    uint64_t shedByClass(JobClass cls) const
    {
        return shedClass_[static_cast<size_t>(cls)].load(
            std::memory_order_relaxed);
    }

    /** True while Adaptive admission refuses new full handshakes. */
    bool adaptiveShedding() const
    {
        return sheddingNewFull_.load(std::memory_order_relaxed);
    }

    /** Latest windowed queue-wait p99 estimate, in cycles. */
    uint64_t queueWaitP99Cycles() const
    {
        return waitP99_.load(std::memory_order_relaxed);
    }

    /** Crypto threads respawned by a Supervisor. */
    uint64_t threadRestarts() const
    {
        return threadRestarts_.load(std::memory_order_relaxed);
    }

    /** In-flight jobs failed by a Supervisor (thread died/stalled). */
    uint64_t supervisedJobFailures() const
    {
        return supervisedFailures_.load(std::memory_order_relaxed);
    }

    /** Live key replicas across all pool threads (leak monitoring). */
    uint64_t replicaCount() const
    {
        return replicas_.load(std::memory_order_relaxed);
    }

    // --- Supervisor health surface -------------------------------------
    // A Supervisor polls these to detect a thread that died or stalled
    // mid-job and to heal the pool. Not intended for general use.

    /** Racy view of one thread slot's health (see healthSlots()). */
    struct ThreadHealthView
    {
        uint64_t heartbeatCycles = 0; ///< last loop-top rdcycles()
        uint64_t jobStartCycles = 0;  ///< rdcycles() at job pickup
        bool busy = false;            ///< a job is (or died) in flight
        bool retired = false;         ///< already reaped or exiting
    };

    /** Number of thread slots ever spawned (grows on respawn). */
    size_t healthSlots() const;

    /** Health snapshot of slot @p index (< healthSlots()). */
    ThreadHealthView healthView(size_t index) const;

    /**
     * Declare slot @p index dead: fail its in-flight job with
     * crypto::ProviderFailureError (first-wins — a slow-but-alive
     * thread completing concurrently is harmless), retire the thread
     * (an alive one exits after its current job instead of taking
     * more), and spawn a replacement that rebuilds fresh key replicas
     * lazily. Returns false when the slot was already retired.
     * Called by the Supervisor; safe from any thread.
     */
    bool reapThread(size_t index, const char *reason);

    /**
     * Re-point the cryptopool.* metrics (queue-wait and service-time
     * histograms, outcome counters, queue-depth gauge) at @p reg (null
     * restores the global registry). Handles are read by pool and
     * submitter threads without synchronization: bind while the pool
     * is quiescent — right after construction, before jobs flow.
     */
    void bindMetrics(obs::MetricsRegistry *reg);

    /**
     * Mirror each pool thread's job execution into @p sink: every
     * thread keeps a ring trace on track cryptoTrackBase+index with
     * JobStart/JobEnd span events, dumped to the sink when the pool
     * shuts down. Null disables. Safe to call while running.
     */
    void
    bindTraceSink(obs::TraceSink *sink)
    {
        traceSink_.store(sink, std::memory_order_release);
    }

  private:
    enum class Kind
    {
        Decrypt,
        Sign,
        Raw,
    };

    struct Job
    {
        Kind kind;
        const crypto::RsaPrivateKey *key = nullptr;
        Bytes input;
        std::function<Bytes()> fn;
        std::shared_ptr<crypto::RsaJob::State> state;
        uint64_t submitCycles = 0; ///< for the queue-wait histogram
        JobClass cls = JobClass::NewFullHandshake;
        uint64_t deadlineCycles = 0; ///< absolute shed point (0 = none)
    };

    /** One spawned thread's health record (stable address in deque). */
    struct ThreadRecord
    {
        std::atomic<uint64_t> heartbeat{0};
        std::atomic<uint64_t> jobStart{0};
        std::atomic<bool> busy{false};
        std::atomic<bool> retired{false};
        /** In-flight job, guarded by jobM (lock order: m_ then jobM). */
        std::mutex jobM;
        std::shared_ptr<crypto::RsaJob::State> inflight;
        uint64_t faultSeed = 0;
    };

    crypto::RsaJob enqueue(Job job);
    void workerLoop(size_t index);
    /** Stable pointer to a health slot (locks against deque growth). */
    ThreadRecord *recordAt(size_t index) const;
    /** Spawn a worker on a fresh health slot (ctor + respawn). */
    void spawnWorker();
    /** Adaptive admission refusal for @p cls (relaxed flag reads). */
    bool adaptiveRefuses(JobClass cls) const;
    /** Update the CoDel control state; caller holds m_. */
    void controlUpdate(uint64_t now, uint64_t wait_cycles);
    /** Recompute the windowed p99 and flip flags; caller holds m_. */
    void controlRecompute(uint64_t now);
    /** Refresh (or decay) the control state from the enqueue side. */
    void controlTouchIdle(uint64_t now);
    void countClassShed(JobClass cls);

    mutable std::mutex m_;
    std::condition_variable cv_;
    std::deque<Job> queue_;
    bool stopping_ = false;
    size_t threads_ = 1;
    size_t maxQueue_ = 0;
    OverloadPolicy policy_ = OverloadPolicy::Reject;
    AdmissionControl adm_;
    CryptoFaultPlan faults_;
    std::atomic<uint64_t> deathBudget_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> cancelled_{0};
    std::atomic<uint64_t> peakQueue_{0};
    std::atomic<uint64_t> deadlineShed_{0};
    std::atomic<uint64_t> shedClass_[jobClassCount] = {};
    std::atomic<uint64_t> threadRestarts_{0};
    std::atomic<uint64_t> supervisedFailures_{0};
    std::atomic<uint64_t> replicas_{0};
    std::atomic<bool> sheddingNewFull_{false};
    std::atomic<bool> sheddingContinuation_{false};
    std::atomic<uint64_t> waitP99_{0};

    // CoDel control-loop window (guarded by m_).
    static constexpr size_t waitWindow = 64;
    uint64_t waitSamples_[waitWindow] = {};
    size_t waitSampleCount_ = 0;
    uint64_t intervalStartCycles_ = 0;
    size_t intervalSampleMark_ = 0;

    std::atomic<obs::TraceSink *> traceSink_{nullptr};
    obs::Histogram histQueueWait_;
    obs::Histogram histService_;
    obs::Counter ctrCompleted_;
    obs::Counter ctrRejected_;
    obs::Counter ctrShed_;
    obs::Counter ctrCancelled_;
    obs::Counter ctrDeadlineShed_;
    obs::Counter ctrShedClass_[jobClassCount];
    obs::Counter ctrRestarts_;
    obs::Counter ctrSupervisedFailures_;
    obs::Gauge gaugeDepth_;
    obs::Gauge gaugeShedding_;

    /** Guards health_ growth and workers_ (never held with jobM). */
    mutable std::mutex healthM_;
    std::deque<ThreadRecord> health_;
    std::vector<std::thread> workers_;
};

/**
 * Provider adapter giving SSL endpoints the asynchronous RSA path:
 * submitRsaDecrypt/submitRsaSign go to the CryptoPool (so the server
 * parks at ClientKeyExchange instead of stalling), everything else —
 * ciphers, digests, record MACs, synchronous RSA — delegates to the
 * wrapped provider. Safe to share across workers: the adapter is
 * stateless and the pool is internally synchronized.
 */
class PooledProvider final : public crypto::Provider
{
  public:
    /**
     * @param pool the crypto pool (not owned; must outlive this)
     * @param inner synchronous fallback; null selects the scalar
     *        provider singleton
     */
    explicit PooledProvider(CryptoPool &pool,
                            crypto::Provider *inner = nullptr);

    const char *name() const override { return "pooled"; }
    std::unique_ptr<crypto::Cipher>
    createCipher(crypto::CipherAlg alg, const Bytes &key,
                 const Bytes &iv, bool encrypt) override;
    std::unique_ptr<crypto::Digest>
    createDigest(crypto::DigestAlg alg) override;
    std::unique_ptr<crypto::Hmac> createHmac(crypto::DigestAlg alg,
                                             const Bytes &key) override;
    size_t recordMac(const crypto::RecordMacSpec &spec, uint64_t seq,
                     uint8_t type, ConstSpan data,
                     uint8_t *mac_out) override;
    Bytes rsaDecrypt(const crypto::RsaPrivateKey &key,
                     const Bytes &cipher) override;
    Bytes rsaSign(const crypto::RsaPrivateKey &key,
                  const Bytes &digest_data) override;
    crypto::RsaJob submitRsaDecrypt(const crypto::RsaPrivateKey &key,
                                    Bytes cipher) override;
    crypto::RsaJob submitRsaSign(const crypto::RsaPrivateKey &key,
                                 Bytes digest_data) override;

  private:
    CryptoPool &pool_;
    crypto::Provider &inner_;
};

} // namespace ssla::serve

#endif // SSLA_SERVE_CRYPTOPOOL_HH
