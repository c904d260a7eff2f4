/**
 * @file
 * Self-healing overload-control tests: deadline-aware admission in the
 * CryptoPool (per-class shedding, queue-wait deadline budgets, the
 * Adaptive control loop), the Supervisor's reap-and-respawn contract
 * over dead or wedged crypto threads, the client-side
 * CertificateVerify parking protocol, and the chaos rows proving an
 * overloaded or crypto-faulted engine run terminates every session by
 * shed/alert — never by silent hang.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

#include "obs/export.hh"
#include "serve/engine.hh"
#include "serve/supervisor.hh"
#include "ssl/client.hh"
#include "ssl/server.hh"
#include "testkeys.hh"
#include "util/bytes.hh"
#include "util/cycles.hh"

namespace
{

using namespace ssla;

/** Chaos seed override, same env contract as test_faults.cc. */
uint64_t
selfhealSeed()
{
    if (const char *env = std::getenv("SSLA_CHAOS_SEED"))
        return std::strtoull(env, nullptr, 0);
    return 0x5e1f;
}

/** Cycles corresponding to @p ms milliseconds of wall time. */
uint64_t
msCycles(double ms)
{
    return static_cast<uint64_t>(cycleHz() * ms / 1000.0);
}

/**
 * Yield until @p done() holds. Gives up after 10 s with a test failure
 * naming @p what, so a lost wakeup fails the test instead of hanging
 * it.
 */
template <class Pred>
void
waitFor(Pred done, const char *what)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            ADD_FAILURE() << "timed out waiting for " << what;
            return;
        }
        std::this_thread::yield();
    }
}

/**
 * Submit @p fn under the caller's job class with a budget no queue
 * wait can exceed. A test's own scaffolding job must not be
 * deadline-shed by the pool's short budget on a loaded host.
 */
crypto::RsaJob
submitUnbounded(serve::CryptoPool &cp, std::function<Bytes()> fn)
{
    serve::JobBinding binding = serve::currentJobBinding();
    binding.deadlineBudgetCycles = UINT64_MAX / 2;
    serve::JobBindingScope scope(binding);
    return cp.submitRaw(std::move(fn));
}

/**
 * Occupies a pool thread with a job that blocks until release(), so
 * jobs queued behind it age deterministically.
 */
class PoolGate
{
  public:
    explicit PoolGate(serve::CryptoPool &cp)
    {
        job_ = submitUnbounded(cp, [this] {
            std::unique_lock<std::mutex> lock(m_);
            cv_.wait(lock, [this] { return released_; });
            return Bytes();
        });
        // Wait for a worker to pick the gate up, so the queue slots
        // (and queue-bound checks) behind it are deterministic.
        waitFor([&] { return cp.queueDepth() == 0; },
                "a pool thread to take the gate");
    }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            released_ = true;
        }
        cv_.notify_all();
        job_.wait();
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    bool released_ = false;
    crypto::RsaJob job_;
};

// ---------------------------------------------------------------------
// Deadline-aware admission

TEST(Overload, DeadlineBudgetShedsStaleJobsBeforeExecution)
{
    // A 1ms queue-wait budget with the single thread gated for 20ms:
    // the queued job is dead on dequeue and must fail with the
    // deadline error WITHOUT its function ever running.
    serve::AdmissionControl adm;
    adm.deadlineBudgetCycles = msCycles(1.0);
    serve::CryptoPool cp(1, 0, serve::OverloadPolicy::Reject, adm);
    PoolGate gate(cp);

    std::atomic<bool> ran{false};
    crypto::RsaJob victim = cp.submitRaw([&ran] {
        ran = true;
        return Bytes();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();

    try {
        victim.wait();
        FAIL() << "stale job must be deadline-shed";
    } catch (const crypto::ProviderDeadlineError &) {
        // Expected: and it is a subclass of the overload family, so
        // endpoints map it to internal_error through existing catches.
    }
    EXPECT_FALSE(ran.load());
    EXPECT_EQ(cp.deadlineShedJobs(), 1u);
    EXPECT_EQ(cp.shedByClass(serve::JobClass::NewFullHandshake), 1u);
}

TEST(Overload, DeadlineErrorIsAnOverloadError)
{
    serve::AdmissionControl adm;
    adm.deadlineBudgetCycles = msCycles(1.0);
    serve::CryptoPool cp(1, 0, serve::OverloadPolicy::Reject, adm);
    PoolGate gate(cp);
    crypto::RsaJob victim = cp.submitRaw([] { return Bytes(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();
    EXPECT_THROW(victim.wait(), crypto::ProviderOverloadError);
}

TEST(Overload, JobBindingBudgetOverridesPoolDefault)
{
    // No pool-level budget; the submitter binds a 1ms budget for one
    // job and leaves another unbound. Only the bound job sheds.
    serve::CryptoPool cp(1);
    PoolGate gate(cp);

    crypto::RsaJob bound;
    {
        serve::JobBindingScope scope(
            {serve::JobClass::Resumption, msCycles(1.0)});
        bound = cp.submitRaw([] { return toBytes("bound"); });
    }
    crypto::RsaJob unbound = cp.submitRaw([] { return toBytes("free"); });

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();

    EXPECT_THROW(bound.wait(), crypto::ProviderDeadlineError);
    EXPECT_EQ(unbound.wait(), toBytes("free"));
    EXPECT_EQ(cp.deadlineShedJobs(), 1u);
    // The shed is attributed to the binding's class.
    EXPECT_EQ(cp.shedByClass(serve::JobClass::Resumption), 1u);
}

TEST(Overload, AdaptiveFlipsSheddingFromMeasuredQueueWait)
{
    // Tiny CoDel target (~30us) with a 20ms backlog behind the gate:
    // once the backlog drains, the measured queue-wait p99 is far past
    // target and the control loop must flip to shedding new-full (and,
    // at >2x target, continuation) work while resumption jobs stay
    // admitted.
    serve::AdmissionControl adm;
    adm.targetDelayCycles = msCycles(0.03);
    // The interval must be shorter than the backlog's queue wait (so
    // the drain crosses a boundary and recomputes) but much longer
    // than the drain-to-probe gap below — otherwise the idle-recovery
    // path can legitimately clear the flags before the probe submits,
    // which sanitizer slowdown turns from theoretical into routine.
    adm.intervalCycles = msCycles(10.0);
    adm.deadlineBudgetCycles = UINT64_MAX / 2; // isolate admission
    serve::CryptoPool cp(1, 0, serve::OverloadPolicy::Adaptive, adm);
    PoolGate gate(cp);

    std::vector<crypto::RsaJob> backlog;
    for (int i = 0; i < 6; ++i)
        backlog.push_back(cp.submitRaw([] { return Bytes(); }));
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    gate.release();
    for (auto &j : backlog) {
        try {
            j.wait();
        } catch (const crypto::ProviderOverloadError &) {
            // An interval boundary can land mid-drain (near-certain
            // under sanitizer slowdown), shedding the tail of the
            // backlog at dequeue; the p99 window and the flipped
            // admit bits below are the same either way.
        }
    }

    EXPECT_TRUE(cp.adaptiveShedding());
    EXPECT_GT(cp.queueWaitP99Cycles(), adm.targetDelayCycles);

    // New-full admission is refused fast, before any RSA cycles burn.
    crypto::RsaJob refused = cp.submitRaw([] { return Bytes(); });
    EXPECT_THROW(refused.wait(), crypto::ProviderOverloadError);
    EXPECT_GE(cp.shedByClass(serve::JobClass::NewFullHandshake), 1u);

    // Resumption work is never shed at admission.
    {
        serve::JobBindingScope scope({serve::JobClass::Resumption, 0});
        crypto::RsaJob ok = cp.submitRaw([] { return toBytes("r"); });
        EXPECT_EQ(ok.wait(), toBytes("r"));
    }
}

TEST(Overload, AdaptiveRecoversOnceQueueWaitFalls)
{
    // After the same overload episode, a stream of short-wait jobs
    // (with interval boundaries forced between them) must wash the
    // window and clear the shedding flags with hysteresis. The target
    // is generous (2ms) so recovery only depends on queue waits being
    // small relative to a handshake, not on scheduler latency.
    serve::AdmissionControl adm;
    adm.targetDelayCycles = msCycles(2.0);
    adm.intervalCycles = msCycles(0.5);
    adm.deadlineBudgetCycles = UINT64_MAX / 2;
    serve::CryptoPool cp(1, 0, serve::OverloadPolicy::Adaptive, adm);

    // Resumption jobs are always admitted, so they carry both the
    // episode (a gate pickup slower than the target on a loaded host
    // already raises shedding, which would refuse a new-full backlog)
    // and the fresh (small) wait samples that wash out the spike.
    serve::JobBindingScope scope({serve::JobClass::Resumption, 0});
    {
        PoolGate gate(cp);
        std::vector<crypto::RsaJob> backlog;
        for (int i = 0; i < 6; ++i)
            backlog.push_back(cp.submitRaw([] { return Bytes(); }));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate.release();
        for (auto &j : backlog)
            j.wait();
    }
    ASSERT_TRUE(cp.adaptiveShedding());

    // First overwrite the whole sample ring with small waits: until
    // the episode's 20ms samples are gone, any recompute (including
    // the one a later submit can trigger) may legitimately re-assert
    // shedding from the stale window.
    //
    // The window holds 64 samples, so its "p99" is its maximum: one
    // scheduler hiccup past the target during the wash re-asserts
    // shedding by design. A refusal with the p99 above target is that
    // case (the wash failed, not the recovery), so wash again; a
    // refusal with the p99 at or under target is a real failure.
    bool admitted = false;
    for (int round = 0; round < 5 && !admitted; ++round) {
        for (int i = 0; i < 80; ++i)
            cp.submitRaw([] { return Bytes(); }).wait();
        for (int i = 0; i < 150 && cp.adaptiveShedding(); ++i) {
            crypto::RsaJob j = cp.submitRaw([] { return Bytes(); });
            j.wait();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        // And new-full work is admitted again.
        serve::JobBindingScope full(
            {serve::JobClass::NewFullHandshake, 0});
        crypto::RsaJob ok = cp.submitRaw([] { return toBytes("again"); });
        try {
            EXPECT_EQ(ok.wait(), toBytes("again"));
            admitted = true;
        } catch (const crypto::ProviderOverloadError &) {
            ASSERT_GT(cp.queueWaitP99Cycles(), adm.targetDelayCycles)
                << "new-full refused with the queue-wait p99 at or "
                   "under target (round "
                << round << ")";
        }
    }
    EXPECT_TRUE(admitted) << "new-full refused in every wash round";
}

TEST(Overload, AdaptiveFullQueueKeepsInvestedClasses)
{
    // At the hard queue bound, Adaptive rejects a new-full submit fast
    // but hands invested classes back to the caller (sync fallback),
    // mirroring Shed.
    //
    // Only the queue bound may refuse here, so the queue-wait control
    // loop gets a target no gate pickup can reach and no deadline. With
    // the ~2 ms default, a slow pickup raised shedding and the filler
    // was refused at admission; a quiet interval then cleared the flag,
    // `rejected` was admitted behind the gate, and its wait() blocked
    // on a gate released only afterwards.
    serve::AdmissionControl adm;
    adm.targetDelayCycles = UINT64_MAX / 4;
    adm.deadlineBudgetCycles = UINT64_MAX / 2;
    serve::CryptoPool cp(1, /*max_queue=*/1,
                         serve::OverloadPolicy::Adaptive, adm);
    PoolGate gate(cp);
    crypto::RsaJob filler = cp.submitRaw([] { return Bytes(); });

    crypto::RsaJob rejected = cp.submitRaw([] { return Bytes(); });
    ASSERT_TRUE(rejected.valid());
    EXPECT_THROW(rejected.wait(), crypto::ProviderOverloadError);
    EXPECT_EQ(cp.shedByClass(serve::JobClass::NewFullHandshake), 1u);

    {
        serve::JobBindingScope scope(
            {serve::JobClass::Continuation, 0});
        crypto::RsaJob shed = cp.submitRaw([] { return Bytes(); });
        EXPECT_FALSE(shed.valid()); // caller computes synchronously
        EXPECT_EQ(cp.shedByClass(serve::JobClass::Continuation), 1u);
    }
    gate.release();
    filler.wait();
}

// ---------------------------------------------------------------------
// Supervisor: reap and respawn

TEST(Supervisor, ReapsDeadThreadFailsJobAndRespawns)
{
    // Deterministic thread death: the first job kills its thread
    // (rate 1, budget 1), leaving the slot busy forever. The
    // supervisor must fail the job — the session terminates instead
    // of hanging — and spawn a replacement that serves the next job.
    serve::CryptoFaultPlan faults;
    faults.threadDeathRate = 1.0;
    faults.maxThreadDeaths = 1;
    faults.seed = selfhealSeed();
    serve::CryptoPool cp(1, 0, serve::OverloadPolicy::Reject, {},
                         faults);
    serve::SupervisorConfig scfg;
    scfg.pollIntervalUs = 200;
    scfg.stallThresholdCycles = msCycles(2.0);
    serve::Supervisor sup(cp, scfg);

    crypto::RsaJob doomed = cp.submitRaw([] { return toBytes("x"); });
    EXPECT_THROW(doomed.wait(), crypto::ProviderFailureError);
    // The reap resolves the job before the supervisor's own counter
    // ticks; wait for the poll to finish bookkeeping.
    waitFor([&] { return sup.restarts() != 0; }, "a supervisor restart");
    EXPECT_EQ(cp.supervisedJobFailures(), 1u);
    EXPECT_EQ(cp.threadRestarts(), 1u);
    EXPECT_EQ(sup.restarts(), 1u);
    EXPECT_GE(cp.healthSlots(), 2u);

    // The death budget is spent: the replacement completes real work.
    crypto::RsaJob next = cp.submitRaw([] { return toBytes("alive"); });
    EXPECT_EQ(next.wait(), toBytes("alive"));
    EXPECT_EQ(cp.completedJobs(), 1u);
}

TEST(Supervisor, RespawnedThreadServesRealRsaWork)
{
    // Same reap path, but the replacement must rebuild key replicas
    // and produce a correct decrypt.
    const auto &kp = test::testKey512();
    crypto::RandomPool rand{toBytes("respawn-rsa")};
    Bytes plain = rand.bytes(20);
    Bytes cipher = crypto::rsaPublicEncrypt(kp.pub, plain, rand);

    serve::CryptoFaultPlan faults;
    faults.threadDeathRate = 1.0;
    faults.maxThreadDeaths = 1;
    serve::CryptoPool cp(1, 0, serve::OverloadPolicy::Reject, {},
                         faults);
    serve::SupervisorConfig scfg;
    // Wide enough that the respawned thread's *healthy* decrypt is
    // never mistaken for a stall under sanitizer slowdown; the doomed
    // job's thread stops stamping entirely, so detection still fires.
    scfg.stallThresholdCycles = msCycles(50.0);
    serve::Supervisor sup(cp, scfg);

    crypto::RsaJob doomed = cp.submitDecrypt(*kp.priv, cipher);
    EXPECT_THROW(doomed.wait(), crypto::ProviderFailureError);
    crypto::RsaJob retry = cp.submitDecrypt(*kp.priv, cipher);
    EXPECT_EQ(retry.wait(), plain);
    EXPECT_EQ(cp.threadRestarts(), 1u);
}

TEST(Supervisor, ExternalHeartbeatStallsAreCounted)
{
    serve::CryptoPool cp(1);
    serve::SupervisorConfig scfg;
    scfg.pollIntervalUs = 200;
    scfg.stallThresholdCycles = msCycles(1.0);
    serve::Supervisor sup(cp, scfg);

    // Stamps are chosen, not timed: 0 is stale under any threshold,
    // and a stamp a second ahead reads as age 0. Each step waits for
    // two more polls, so at least one whole poll ran after the store.
    std::atomic<uint64_t> *hb = sup.watch("test-worker");
    auto settle = [&](uint64_t n) {
        const uint64_t p0 = sup.polls();
        waitFor([&] { return sup.polls() >= p0 + n; }, "supervisor polls");
    };
    auto markFresh = [&] {
        hb->store(rdcycles() + msCycles(1000.0), std::memory_order_relaxed);
        settle(2);
    };
    auto markStale = [&] {
        hb->store(0, std::memory_order_relaxed);
        settle(2);
    };

    // Stop stamping: the slot goes stale and must be counted as one
    // stall episode (edge-triggered, not once per poll).
    markStale();
    EXPECT_EQ(sup.externalStalls(), 1u);

    // Recover, then stall again: a second episode.
    markFresh();
    EXPECT_EQ(sup.externalStalls(), 1u);
    markStale();
    EXPECT_EQ(sup.externalStalls(), 2u);

    // Staying stale is still the same episode.
    settle(5);
    EXPECT_EQ(sup.externalStalls(), 2u);
}

TEST(Supervisor, HeartbeatStampedAfterPollClockIsFresh)
{
    // A worker may stamp its heartbeat after a poll read its clock. A
    // stamp ahead of the poll's "now" is fresh; unsigned now - stamp
    // would wrap to ~2^64 and count a stall on a busy worker.
    serve::CryptoPool cp(1);
    serve::SupervisorConfig scfg;
    scfg.pollIntervalUs = 200;
    scfg.stallThresholdCycles = msCycles(1000.0);
    serve::Supervisor sup(cp, scfg);

    std::atomic<uint64_t> *hb = sup.watch("test-worker");
    hb->store(rdcycles() + msCycles(100.0), std::memory_order_relaxed);
    const uint64_t polls = sup.polls();
    waitFor([&] { return sup.polls() >= polls + 5; }, "five polls");
    EXPECT_EQ(sup.externalStalls(), 0u);
}

// ---------------------------------------------------------------------
// First-wins and replica accounting (the Shed-cancel race regression)

TEST(CryptoPoolRace, SupervisorReapVsSlowCompletionSingleResolve)
{
    // Every job wedges its thread (spin, no heartbeat) long enough for
    // the supervisor to declare it dead. The supervisor fails the job
    // first; the thread is merely slow and completes afterwards — the
    // second finish must no-op (first-wins), with the waiter seeing
    // exactly one resolution. TSan runs this for the data-race half.
    serve::CryptoFaultPlan faults;
    faults.slowdownRate = 1.0;
    faults.slowdownCycles = msCycles(30.0);
    serve::CryptoPool cp(1, 0, serve::OverloadPolicy::Reject, {},
                         faults);
    serve::SupervisorConfig scfg;
    scfg.pollIntervalUs = 200;
    scfg.stallThresholdCycles = msCycles(3.0);
    serve::Supervisor sup(cp, scfg);

    crypto::RsaJob job = cp.submitRaw([] { return toBytes("late"); });
    EXPECT_THROW(job.wait(), crypto::ProviderFailureError);
    // The reap resolves the victim job *before* the restart counter
    // increments (so waiters never observe a counted restart whose
    // job still hangs); give the tail of the reap a moment to land.
    waitFor([&] { return cp.threadRestarts() != 0; },
            "a crypto thread restart");
    EXPECT_GE(cp.threadRestarts(), 1u);

    // The zombie finishes its spin and completes the (already
    // resolved) job; completedJobs() proves it ran to completion.
    waitFor([&] { return cp.completedJobs() != 0; },
            "the zombie job to complete");
    EXPECT_EQ(cp.completedJobs(), 1u);
    // First-wins: the failure the waiter saw is still the outcome.
    EXPECT_THROW(job.wait(), crypto::ProviderFailureError);
}

TEST(CryptoPoolRace, CancelCompleteHammerNoDoubleResolve)
{
    // Cancel racing completion from another thread: whatever side wins
    // the first-wins exchange, wait() returns exactly once with either
    // the result or an error — never a hang, never a double-set.
    const auto &kp = test::testKey512();
    crypto::RandomPool rand{toBytes("cancel-hammer")};
    Bytes plain = rand.bytes(16);
    Bytes cipher = crypto::rsaPublicEncrypt(kp.pub, plain, rand);

    serve::CryptoPool cp(2);
    for (int i = 0; i < 48; ++i) {
        crypto::RsaJob job = cp.submitDecrypt(*kp.priv, cipher);
        std::thread canceller([&job] { job.cancel(); });
        bool resolved = false;
        try {
            Bytes out = job.wait();
            EXPECT_EQ(out, plain);
            resolved = true;
        } catch (const std::exception &) {
            resolved = true; // cancelled (or raced) — still one outcome
        }
        canceller.join();
        EXPECT_TRUE(resolved);
    }
}

TEST(CryptoPoolRace, ReplicaCacheStaysBoundedUnderKeyChurn)
{
    // 12 distinct key objects through a 2-thread pool: the per-thread
    // replica cache (8 entries) must evict rather than grow, keeping
    // the live-replica count bounded — key churn cannot leak
    // Montgomery scratch.
    const crypto::RsaPrivateKey &k = *test::testKey512().priv;
    std::vector<std::shared_ptr<crypto::RsaPrivateKey>> keys;
    for (int i = 0; i < 12; ++i)
        keys.push_back(k.replica());

    crypto::RandomPool rand{toBytes("replica-churn")};
    Bytes plain = rand.bytes(16);
    Bytes cipher =
        crypto::rsaPublicEncrypt(test::testKey512().pub, plain, rand);

    serve::CryptoPool cp(2);
    for (int round = 0; round < 2; ++round)
        for (auto &key : keys) {
            crypto::RsaJob job = cp.submitDecrypt(*key, cipher);
            EXPECT_EQ(job.wait(), plain);
        }
    EXPECT_GT(cp.replicaCount(), 0u);
    EXPECT_LE(cp.replicaCount(), 2u * 8u);
}

// ---------------------------------------------------------------------
// Client-side CertificateVerify parking (async signing, client side)

/**
 * Provider whose submitRsaSign hands back a job the test resolves by
 * hand (the client-auth counterpart of test_serve.cc's StallProvider).
 */
class SignStallProvider : public crypto::Provider
{
  public:
    const char *name() const override { return "sign-stall"; }

    std::unique_ptr<crypto::Cipher>
    createCipher(crypto::CipherAlg alg, const Bytes &key,
                 const Bytes &iv, bool encrypt) override
    {
        return inner_.createCipher(alg, key, iv, encrypt);
    }
    std::unique_ptr<crypto::Digest>
    createDigest(crypto::DigestAlg alg) override
    {
        return inner_.createDigest(alg);
    }
    std::unique_ptr<crypto::Hmac>
    createHmac(crypto::DigestAlg alg, const Bytes &key) override
    {
        return inner_.createHmac(alg, key);
    }
    size_t
    recordMac(const crypto::RecordMacSpec &spec, uint64_t seq,
              uint8_t type, ConstSpan data, uint8_t *mac_out) override
    {
        return inner_.recordMac(spec, seq, type, data, mac_out);
    }
    Bytes
    rsaDecrypt(const crypto::RsaPrivateKey &key,
               const Bytes &cipher) override
    {
        return inner_.rsaDecrypt(key, cipher);
    }
    Bytes
    rsaSign(const crypto::RsaPrivateKey &key,
            const Bytes &digest_data) override
    {
        return inner_.rsaSign(key, digest_data);
    }

    crypto::RsaJob
    submitRsaSign(const crypto::RsaPrivateKey &key,
                  Bytes digest_data) override
    {
        pendingKey_ = &key;
        pendingInput_ = std::move(digest_data);
        pendingState_ = std::make_shared<crypto::RsaJob::State>();
        return crypto::RsaJob(pendingState_);
    }

    bool pending() const { return pendingState_ != nullptr; }

    void
    resolve()
    {
        ASSERT_TRUE(pendingState_);
        Bytes result;
        std::exception_ptr err;
        try {
            result = crypto::rsaSign(*pendingKey_, pendingInput_);
        } catch (...) {
            err = std::current_exception();
        }
        pendingState_->finish(std::move(result), std::move(err));
        pendingState_.reset();
    }

    void
    resolveWithError()
    {
        ASSERT_TRUE(pendingState_);
        pendingState_->finish(
            Bytes(),
            std::make_exception_ptr(
                std::runtime_error("simulated sign engine failure")));
        pendingState_.reset();
    }

  private:
    crypto::Provider &inner_ = crypto::scalarProvider();
    const crypto::RsaPrivateKey *pendingKey_ = nullptr;
    Bytes pendingInput_;
    std::shared_ptr<crypto::RsaJob::State> pendingState_;
};

/** Client identity fixture, mirroring test_client_auth.cc. */
struct SelfhealClientIdentity
{
    crypto::RsaKeyPair key;
    pki::Certificate cert;

    SelfhealClientIdentity()
    {
        key = crypto::rsaGenerateKey(512, test::seededRng(0x5e1fc11e));
        pki::CertificateInfo info;
        info.serial = 78;
        info.issuer = "selfheal.client";
        info.subject = "selfheal.client";
        info.notBefore = 0;
        info.notAfter = 2000000000;
        info.publicKey = key.pub;
        cert = pki::Certificate::issue(info, *key.priv);
    }
};

SelfhealClientIdentity &
selfhealIdentity()
{
    static SelfhealClientIdentity id;
    return id;
}

TEST(SignParking, ClientParksAtCertificateVerifyAndResumes)
{
    SignStallProvider stall;
    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = test::testServerCert();
    scfg.privateKey = test::testKey1024().priv;
    scfg.requestClientCertificate = true;
    ssl::SslServer server(std::move(scfg), wires.serverEnd());

    ssl::ClientConfig ccfg;
    ccfg.clientCertificate = selfhealIdentity().cert;
    ccfg.clientKey = selfhealIdentity().key.priv;
    ccfg.provider = &stall;
    ssl::SslClient client(std::move(ccfg), wires.clientEnd());

    // Drive both sides until neither can move: the client must be
    // parked on the held CertificateVerify signature.
    while (client.advance() || server.advance())
        ;
    ASSERT_FALSE(client.handshakeDone());
    EXPECT_TRUE(client.waitingOnCrypto());
    EXPECT_EQ(client.cryptoWait(), ssl::CryptoWait::CertVerifySign);
    EXPECT_TRUE(stall.pending());

    // Parked is a cheap no-op, not an error.
    EXPECT_FALSE(client.advance());

    stall.resolve();
    EXPECT_FALSE(client.waitingOnCrypto());
    while (client.advance() || server.advance())
        ;
    EXPECT_TRUE(client.handshakeDone());
    EXPECT_TRUE(server.handshakeDone());

    // The mutually authenticated channel works end to end.
    client.writeApplicationData(toBytes("signed async"));
    while (client.advance() || server.advance())
        ;
    auto got = server.readApplicationData();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, toBytes("signed async"));
}

TEST(SignParking, FailedClientSignAlertsAfterUnpark)
{
    SignStallProvider stall;
    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = test::testServerCert();
    scfg.privateKey = test::testKey1024().priv;
    scfg.requestClientCertificate = true;
    ssl::SslServer server(std::move(scfg), wires.serverEnd());

    ssl::ClientConfig ccfg;
    ccfg.clientCertificate = selfhealIdentity().cert;
    ccfg.clientKey = selfhealIdentity().key.priv;
    ccfg.provider = &stall;
    ssl::SslClient client(std::move(ccfg), wires.clientEnd());

    while (client.advance() || server.advance())
        ;
    ASSERT_EQ(client.cryptoWait(), ssl::CryptoWait::CertVerifySign);

    stall.resolveWithError();
    EXPECT_FALSE(client.waitingOnCrypto());
    try {
        client.advance();
        FAIL() << "failed CertificateVerify sign did not raise";
    } catch (const ssl::SslError &e) {
        EXPECT_EQ(e.alert(), ssl::AlertDescription::InternalError);
    }
    EXPECT_TRUE(client.failed());
    EXPECT_EQ(client.fatalAlertsSent(), 1u);
}

TEST(SignParking, MutualHandshakeThroughRealPool)
{
    // End to end through a real CryptoPool on both endpoints: the
    // client's CertificateVerify and the server's pre-master decrypt
    // both ride the async path, and runLockstep treats the parked
    // phases as progress-pending rather than deadlock.
    serve::CryptoPool cp(2);
    serve::PooledProvider pooled(cp);
    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = test::testServerCert();
    scfg.privateKey = test::testKey1024().priv;
    scfg.requestClientCertificate = true;
    scfg.provider = &pooled;
    ssl::SslServer server(std::move(scfg), wires.serverEnd());

    ssl::ClientConfig ccfg;
    ccfg.clientCertificate = selfhealIdentity().cert;
    ccfg.clientKey = selfhealIdentity().key.priv;
    ccfg.provider = &pooled;
    ssl::SslClient client(std::move(ccfg), wires.clientEnd());

    ssl::runLockstep(client, server);
    EXPECT_TRUE(client.handshakeDone());
    EXPECT_TRUE(server.handshakeDone());
    EXPECT_GE(cp.completedJobs(), 2u); // decrypt + cert-verify sign
}

// ---------------------------------------------------------------------
// Engine integration

serve::ServeConfig
selfhealEngineConfig()
{
    serve::ServeConfig cfg;
    cfg.certificate = &test::testServerCert512();
    cfg.privateKey = test::testKey512().priv;
    cfg.seed = selfhealSeed();
    cfg.bulkBytes = 0;
    return cfg;
}

TEST(ServeEngineOverload, WorkersStampSupervisorHeartbeats)
{
    serve::CryptoPool pool(1);
    // The point here is the wiring — workers register and stamp
    // without racing the poll loop — not stall latency, so the
    // threshold is wide enough that a descheduled-but-alive worker
    // (routine under parallel sanitizer runs) never reads as a stall.
    serve::SupervisorConfig scfg;
    scfg.stallThresholdCycles = msCycles(30000.0);
    serve::Supervisor sup(pool, scfg);
    serve::ServeConfig cfg = selfhealEngineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 6;
    cfg.concurrentPerWorker = 2;
    cfg.cryptoPool = &pool;
    cfg.supervisor = &sup;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.fullHandshakes(), 12u);
    // Engine workers are short-lived here; no stall episodes.
    EXPECT_EQ(sup.externalStalls(), 0u);
}

TEST(ServeEngineOverload, ParkedSweepsDoNotAgeHandshakeDeadline)
{
    // One slow crypto thread keeps every session parked for thousands
    // of sweeps on a clean channel, far past the virtual-tick deadline.
    // Parked sweeps must not age that deadline: a job that completes
    // between the worker's pump and its park poll unparks the session
    // with no pump, and a deadline counted from the session's first
    // sweep would kill it right there as "timed out".
    serve::CryptoFaultPlan faults;
    faults.slowdownRate = 1.0;
    faults.slowdownCycles = msCycles(0.5);
    faults.seed = selfhealSeed();
    serve::CryptoPool pool(1, 0, serve::OverloadPolicy::Reject, {},
                           faults);

    const size_t sessions = 192;
    serve::ServeConfig cfg = selfhealEngineConfig();
    cfg.workers = 1;
    cfg.connectionsPerWorker = sessions;
    cfg.concurrentPerWorker = 8;
    cfg.cryptoPool = &pool;
    cfg.tolerateFailures = true;
    cfg.handshakeDeadlineTicks = 16;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();

    EXPECT_EQ(stats.terminatedSessions(), sessions);
    EXPECT_EQ(stats.timedOutSessions(), 0u);
    EXPECT_EQ(stats.failedHandshakes(), 0u);
    EXPECT_EQ(stats.fullHandshakes(), sessions);
    EXPECT_EQ(pool.completedJobs(), sessions);
    EXPECT_GT(stats.parkEvents(), 0u);
}

TEST(ServeEngineOverload, ObservabilitySurfacesOverloadCounters)
{
    // The overload-control plane must be visible through the metrics
    // registry and the Prometheus text endpoint: crypto thread
    // restarts and per-class shed counters.
    obs::MetricsRegistry reg;
    serve::CryptoFaultPlan faults;
    faults.threadDeathRate = 1.0;
    faults.maxThreadDeaths = 1;
    serve::AdmissionControl adm;
    adm.deadlineBudgetCycles = msCycles(1.0);
    serve::CryptoPool pool(1, 0, serve::OverloadPolicy::Reject, adm,
                           faults);
    pool.bindMetrics(&reg);
    serve::SupervisorConfig supcfg;
    supcfg.stallThresholdCycles = msCycles(2.0);
    {
        serve::Supervisor sup(pool, supcfg);
        sup.bindMetrics(&reg);
        // The pool's 1 ms budget would shed the job at dequeue on a
        // loaded host, before the thread-death draw; an unbounded
        // budget makes the job reach the draw deterministically.
        crypto::RsaJob doomed =
            submitUnbounded(pool, [] { return Bytes(); });
        EXPECT_THROW(doomed.wait(), crypto::ProviderFailureError);
        waitFor([&] { return pool.threadRestarts() != 0; },
                "a crypto thread restart");
    }

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("cryptopool.thread_restarts"), 1u);
    EXPECT_EQ(snap.counter("cryptopool.supervised_failures"), 1u);
    EXPECT_EQ(snap.counter("supervisor.restarts"), 1u);

    const std::string text = obs::prometheusText(snap);
    EXPECT_NE(text.find("cryptopool_thread_restarts_total"),
              std::string::npos);
    EXPECT_NE(text.find("cryptopool_shed_class_new_full_total"),
              std::string::npos);
    EXPECT_NE(text.find("supervisor_restarts_total"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Chaos rows

TEST(ChaosMatrix, CryptoSlowdownShedsBeforeEngineDeadline)
{
    // Crypto-thread slowdown faults push queue wait far past the
    // per-job budget: excess sessions must die by the pool's deadline
    // shed (fatal internal_error alert) — never by the engine's
    // handshake deadline, which parking exempts them from. The
    // invariant that distinguishes controlled shedding from a hang.
    serve::CryptoFaultPlan faults;
    faults.slowdownRate = 1.0;
    faults.slowdownCycles = msCycles(8.0);
    faults.seed = selfhealSeed();
    serve::AdmissionControl adm;
    adm.deadlineBudgetCycles = msCycles(2.0);
    serve::CryptoPool pool(1, 0, serve::OverloadPolicy::Reject, adm,
                           faults);

    serve::ServeConfig cfg = selfhealEngineConfig();
    cfg.workers = 1;
    cfg.connectionsPerWorker = 12;
    cfg.concurrentPerWorker = 6;
    cfg.cryptoPool = &pool;
    cfg.tolerateFailures = true;
    cfg.handshakeDeadlineTicks = 1000000; // armed, must never fire
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();

    EXPECT_EQ(stats.terminatedSessions(), 12u);
    EXPECT_EQ(stats.timedOutSessions(), 0u);
    EXPECT_GE(stats.failedHandshakes(), 1u);
    EXPECT_GE(pool.deadlineShedJobs(), 1u);
    EXPECT_GT(stats.fullHandshakes(), 0u); // the slow path still lands
}

TEST(ChaosEngine, KilledCryptoThreadsEverySessionTerminates)
{
    // Both crypto threads die mid-job (deterministic budget); the
    // supervisor reaps and respawns them. The run must terminate with
    // every session accounted — the reaped jobs' sessions die by
    // fatal internal_error alert, nothing hangs.
    serve::CryptoFaultPlan faults;
    faults.threadDeathRate = 1.0;
    faults.maxThreadDeaths = 2;
    faults.seed = selfhealSeed();
    serve::CryptoPool pool(2, 0, serve::OverloadPolicy::Reject, {},
                           faults);
    serve::SupervisorConfig supcfg;
    supcfg.pollIntervalUs = 200;
    supcfg.stallThresholdCycles = msCycles(50.0);
    serve::Supervisor sup(pool, supcfg);

    serve::ServeConfig cfg = selfhealEngineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 20;
    cfg.concurrentPerWorker = 4;
    cfg.cryptoPool = &pool;
    cfg.supervisor = &sup;
    cfg.tolerateFailures = true;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();

    // The failed jobs unblock their sessions before the supervisor's
    // counters tick; give its poll a moment to finish bookkeeping.
    waitFor([&] { return sup.restarts() >= 2; }, "two supervisor restarts");

    EXPECT_EQ(stats.terminatedSessions(), 40u);
    EXPECT_EQ(pool.threadRestarts(), 2u);
    EXPECT_EQ(sup.restarts(), 2u);
    EXPECT_EQ(stats.failedHandshakes(),
              pool.supervisedJobFailures());
    EXPECT_GT(stats.fullHandshakes(), 0u); // pool healed and served on
}

} // anonymous namespace
