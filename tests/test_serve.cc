/**
 * @file
 * Serving-layer tests: CryptoPool correctness, the server's parking
 * protocol on asynchronous RSA, transcript identity between the
 * synchronous and offloaded key-exchange paths, and the ServeEngine
 * end to end (single- and multi-worker, resumption across workers, the
 * key's bignum backend on every worker and pool replica).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "bn/engine.hh"
#include "crypto/provider.hh"
#include "obs/metrics.hh"
#include "serve/engine.hh"
#include "ssl/client.hh"
#include "ssl/server.hh"
#include "testkeys.hh"
#include "util/bytes.hh"

namespace
{

using namespace ssla;

// ---------------------------------------------------------------------
// CryptoPool

TEST(CryptoPool, DecryptMatchesSynchronousPath)
{
    const auto &kp = test::testKey1024();
    crypto::RandomPool pool{toBytes("serve-pool-tests")};
    Bytes plain = toBytes("pre-master material");
    Bytes cipher = crypto::rsaPublicEncrypt(kp.pub, plain, pool);

    serve::CryptoPool cp(2);
    crypto::RsaJob job = cp.submitDecrypt(*kp.priv, cipher);
    EXPECT_EQ(job.wait(), plain);
    EXPECT_EQ(cp.completedJobs(), 1u);
}

TEST(CryptoPool, SignMatchesSynchronousPath)
{
    const auto &kp = test::testKey1024();
    Bytes digest = toBytes("0123456789abcdef0123");

    serve::CryptoPool cp(1);
    crypto::RsaJob job = cp.submitSign(*kp.priv, digest);
    Bytes sig = job.wait();
    EXPECT_EQ(sig, crypto::rsaSign(*kp.priv, digest));
    EXPECT_TRUE(crypto::rsaVerify(kp.pub, digest, sig));
}

TEST(CryptoPool, ErrorsPropagateThroughWait)
{
    const auto &kp = test::testKey1024();
    // Garbage ciphertext: the PKCS#1 unpad must fail on the pool
    // thread and rethrow from wait() on this one.
    Bytes garbage(128, 0x5a);
    serve::CryptoPool cp(1);
    crypto::RsaJob job = cp.submitDecrypt(*kp.priv, garbage);
    EXPECT_THROW(job.wait(), std::exception);
}

TEST(CryptoPool, ManyConcurrentJobsAcrossThreads)
{
    const auto &kp = test::testKey512();
    crypto::RandomPool pool{toBytes("many-jobs")};
    constexpr int kJobs = 32;

    std::vector<Bytes> plains, ciphers;
    for (int i = 0; i < kJobs; ++i) {
        plains.push_back(pool.bytes(20));
        ciphers.push_back(
            crypto::rsaPublicEncrypt(kp.pub, plains.back(), pool));
    }

    serve::CryptoPool cp(4);
    std::vector<crypto::RsaJob> jobs;
    for (int i = 0; i < kJobs; ++i)
        jobs.push_back(cp.submitDecrypt(*kp.priv, ciphers[i]));
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(jobs[i].wait(), plains[i]) << "job " << i;
    EXPECT_EQ(cp.completedJobs(), static_cast<uint64_t>(kJobs));
}

TEST(CryptoPool, DestructorCompletesPendingJobs)
{
    std::atomic<int> ran{0};
    std::vector<crypto::RsaJob> jobs;
    {
        serve::CryptoPool cp(1);
        for (int i = 0; i < 8; ++i)
            jobs.push_back(cp.submitRaw([&ran] {
                ++ran;
                return toBytes("done");
            }));
    }
    // The pool has been destroyed; every job must still have resolved.
    EXPECT_EQ(ran.load(), 8);
    for (auto &j : jobs) {
        ASSERT_TRUE(j.ready());
        EXPECT_EQ(j.wait(), toBytes("done"));
    }
}

// ---------------------------------------------------------------------
// Test decorators

/** Forwards every operation to the scalar provider. */
class ForwardingProvider : public crypto::Provider
{
  public:
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

  protected:
    crypto::Provider &inner_ = crypto::scalarProvider();
};

// ---------------------------------------------------------------------
// Parking protocol

/**
 * Provider whose submitRsaDecrypt hands back a job the test resolves
 * by hand, so the AwaitPreMaster state is observable deterministically
 * (a real pool may finish before the worker's next poll).
 */
class StallProvider : public ForwardingProvider
{
  public:
    const char *name() const override { return "stall"; }

    crypto::RsaJob
    submitRsaDecrypt(const crypto::RsaPrivateKey &key,
                     Bytes cipher) override
    {
        pendingKey_ = &key;
        pendingInput_ = std::move(cipher);
        pendingIsSign_ = false;
        pendingState_ = std::make_shared<crypto::RsaJob::State>();
        return crypto::RsaJob(pendingState_);
    }

    crypto::RsaJob
    submitRsaSign(const crypto::RsaPrivateKey &key,
                  Bytes digest_data) override
    {
        pendingKey_ = &key;
        pendingInput_ = std::move(digest_data);
        pendingIsSign_ = true;
        pendingState_ = std::make_shared<crypto::RsaJob::State>();
        return crypto::RsaJob(pendingState_);
    }

    bool pending() const { return pendingState_ != nullptr; }

    /** Complete the held job (correctly, via the scalar path). */
    void
    resolve()
    {
        ASSERT_TRUE(pendingState_);
        Bytes result;
        std::exception_ptr err;
        try {
            result = pendingIsSign_
                         ? crypto::rsaSign(*pendingKey_, pendingInput_)
                         : crypto::rsaPrivateDecrypt(*pendingKey_,
                                                     pendingInput_);
        } catch (...) {
            err = std::current_exception();
        }
        pendingState_->finish(std::move(result), std::move(err));
        pendingState_.reset();
    }

    /** Complete the held job with a failure. */
    void
    resolveWithError()
    {
        ASSERT_TRUE(pendingState_);
        pendingState_->finish(
            Bytes(), std::make_exception_ptr(
                         std::runtime_error("simulated corrupt input")));
        pendingState_.reset();
    }

  private:
    const crypto::RsaPrivateKey *pendingKey_ = nullptr;
    Bytes pendingInput_;
    bool pendingIsSign_ = false;
    std::shared_ptr<crypto::RsaJob::State> pendingState_;
};

TEST(Parking, ServerParksAtClientKeyExchangeAndResumes)
{
    StallProvider stall;
    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = test::testServerCert();
    scfg.privateKey = test::testKey1024().priv;
    scfg.provider = &stall;
    ssl::SslServer server(std::move(scfg), wires.serverEnd());
    ssl::SslClient client(ssl::ClientConfig{}, wires.clientEnd());

    // Drive both sides until neither can move. The server must be
    // parked on the held decrypt, not deadlocked on peer input.
    while (client.advance() || server.advance())
        ;
    ASSERT_FALSE(server.handshakeDone());
    EXPECT_TRUE(server.waitingOnCrypto());
    EXPECT_EQ(server.cryptoWait(), ssl::CryptoWait::PreMasterDecrypt);
    EXPECT_TRUE(stall.pending());

    // Parked means advance() is a cheap no-op, not an error.
    EXPECT_FALSE(server.advance());
    EXPECT_TRUE(server.waitingOnCrypto());

    stall.resolve();
    EXPECT_FALSE(server.waitingOnCrypto());
    while (client.advance() || server.advance())
        ;
    EXPECT_TRUE(client.handshakeDone());
    EXPECT_TRUE(server.handshakeDone());

    // The established channel works end to end.
    client.writeApplicationData(toBytes("after parking"));
    while (client.advance() || server.advance())
        ;
    auto got = server.readApplicationData();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, toBytes("after parking"));
}

TEST(Parking, FailedDecryptAlertsAfterUnpark)
{
    StallProvider stall;
    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = test::testServerCert();
    scfg.privateKey = test::testKey1024().priv;
    scfg.provider = &stall;
    ssl::SslServer server(std::move(scfg), wires.serverEnd());
    ssl::SslClient client(ssl::ClientConfig{}, wires.clientEnd());

    while (client.advance() || server.advance())
        ;
    ASSERT_TRUE(server.waitingOnCrypto());

    // Complete the job with an error: the unparked server must raise
    // the same fatal handshake_failure alert the synchronous decrypt
    // path produces.
    stall.resolveWithError();
    EXPECT_FALSE(server.waitingOnCrypto());
    EXPECT_THROW(server.advance(), ssl::SslError);
}

// ---------------------------------------------------------------------
// Sign parking (DHE suites park at ServerKeyExchange, not pre-master)

/** DHE-suite server/client pair over @p stall for the tests below. */
struct DheStallRig
{
    ssl::BioPair wires;
    ssl::SslServer server;
    ssl::SslClient client;

    explicit DheStallRig(StallProvider &stall)
        : server(
              [&] {
                  ssl::ServerConfig scfg;
                  scfg.certificate = test::testServerCert();
                  scfg.privateKey = test::testKey1024().priv;
                  scfg.suites = {
                      ssl::CipherSuiteId::DHE_RSA_3DES_EDE_CBC_SHA};
                  scfg.provider = &stall;
                  return scfg;
              }(),
              wires.serverEnd()),
          client(
              [] {
                  ssl::ClientConfig ccfg;
                  ccfg.suites = {
                      ssl::CipherSuiteId::DHE_RSA_3DES_EDE_CBC_SHA};
                  return ccfg;
              }(),
              wires.clientEnd())
    {
    }
};

TEST(SignParking, ServerParksAtServerKeyExchangeAndResumes)
{
    StallProvider stall;
    DheStallRig rig(stall);

    // The server must park on the held SKX signature — a distinct
    // reason from the RSA pre-master decrypt park.
    while (rig.client.advance() || rig.server.advance())
        ;
    ASSERT_FALSE(rig.server.handshakeDone());
    EXPECT_TRUE(rig.server.waitingOnCrypto());
    EXPECT_EQ(rig.server.cryptoWait(), ssl::CryptoWait::ServerKxSign);
    EXPECT_TRUE(stall.pending());

    // Parked means advance() is a cheap no-op, not an error.
    EXPECT_FALSE(rig.server.advance());
    EXPECT_EQ(rig.server.cryptoWait(), ssl::CryptoWait::ServerKxSign);

    stall.resolve();
    EXPECT_FALSE(rig.server.waitingOnCrypto());
    while (rig.client.advance() || rig.server.advance())
        ;
    EXPECT_TRUE(rig.client.handshakeDone());
    EXPECT_TRUE(rig.server.handshakeDone());
    // A DHE client key exchange needs no RSA private operation, so the
    // sign park must have been the only one.
    EXPECT_FALSE(stall.pending());

    rig.client.writeApplicationData(toBytes("signed and sealed"));
    while (rig.client.advance() || rig.server.advance())
        ;
    auto got = rig.server.readApplicationData();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, toBytes("signed and sealed"));
}

TEST(SignParking, FailedSignAlertsAfterUnpark)
{
    StallProvider stall;
    DheStallRig rig(stall);

    while (rig.client.advance() || rig.server.advance())
        ;
    ASSERT_EQ(rig.server.cryptoWait(), ssl::CryptoWait::ServerKxSign);

    // Complete the sign with an error: the unparked server must raise
    // a fatal internal_error alert, same contract as a failed decrypt.
    stall.resolveWithError();
    EXPECT_FALSE(rig.server.waitingOnCrypto());
    try {
        rig.server.advance();
        FAIL() << "failed sign did not raise";
    } catch (const ssl::SslError &e) {
        EXPECT_EQ(e.alert(), ssl::AlertDescription::InternalError);
    }
}

// ---------------------------------------------------------------------
// Transcript identity

/** Relay bytes between two BioPairs, recording both directions. */
struct RecordingRelay
{
    ssl::BioPair clientSide; ///< client endpoint lives here
    ssl::BioPair serverSide; ///< server endpoint lives here
    Bytes clientToServer;
    Bytes serverToClient;

    /** Move all pending bytes across, logging them; true if any. */
    bool
    pump()
    {
        bool moved = false;
        ssl::BioEndpoint fromClient = clientSide.serverEnd();
        ssl::BioEndpoint fromServer = serverSide.clientEnd();
        Bytes buf(4096);
        while (size_t n = fromClient.read(buf.data(), buf.size())) {
            clientToServer.insert(clientToServer.end(), buf.begin(),
                                  buf.begin() + n);
            serverSide.clientEnd().write(buf.data(), n);
            moved = true;
        }
        while (size_t n = fromServer.read(buf.data(), buf.size())) {
            serverToClient.insert(serverToClient.end(), buf.begin(),
                                  buf.begin() + n);
            clientSide.serverEnd().write(buf.data(), n);
            moved = true;
        }
        return moved;
    }
};

/**
 * Run one full handshake + one application record with deterministic
 * randomness, through @p provider, and return both wire transcripts.
 */
std::pair<Bytes, Bytes>
captureTranscript(crypto::Provider *provider,
                  ssl::CipherSuiteId suite =
                      ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA)
{
    RecordingRelay relay;
    crypto::RandomPool clientPool{toBytes("transcript-client")};
    crypto::RandomPool serverPool{toBytes("transcript-server")};

    ssl::ServerConfig scfg;
    scfg.certificate = test::testServerCert();
    scfg.privateKey = test::testKey1024().priv;
    scfg.suites = {suite};
    scfg.randomPool = &serverPool;
    scfg.provider = provider;
    ssl::SslServer server(std::move(scfg),
                          relay.serverSide.serverEnd());

    ssl::ClientConfig ccfg;
    ccfg.suites = {suite};
    ccfg.randomPool = &clientPool;
    ssl::SslClient client(std::move(ccfg),
                          relay.clientSide.clientEnd());

    bool sent = false;
    for (;;) {
        bool progress = client.advance();
        progress |= server.advance();
        progress |= relay.pump();
        if (client.handshakeDone() && server.handshakeDone() && !sent) {
            client.writeApplicationData(toBytes("identical bytes"));
            sent = true;
            progress = true;
        }
        if (sent && server.readApplicationData())
            break;
        if (!progress) {
            if (server.waitingOnCrypto()) {
                std::this_thread::yield();
                continue;
            }
            // The job can resolve between advance() and the check
            // above: the next advance() consumes it.
            if (server.advance())
                continue;
            ADD_FAILURE() << "relay deadlocked";
            break;
        }
    }
    return {relay.clientToServer, relay.serverToClient};
}

TEST(TranscriptIdentity, OffloadedHandshakeIsByteIdenticalToSync)
{
    // Same seeds, same config — one run decrypts the pre-master
    // synchronously, the other through the CryptoPool. RSA blinding
    // in the pool's key replica cancels by construction, so every
    // wire byte in both directions must match.
    auto sync_transcript = captureTranscript(nullptr);

    serve::CryptoPool pool(2);
    serve::PooledProvider pooled(pool);
    auto offload_transcript = captureTranscript(&pooled);

    EXPECT_FALSE(sync_transcript.first.empty());
    EXPECT_FALSE(sync_transcript.second.empty());
    EXPECT_EQ(sync_transcript.first, offload_transcript.first);
    EXPECT_EQ(sync_transcript.second, offload_transcript.second);
}

TEST(TranscriptIdentity, OffloadedDheHandshakeIsByteIdenticalToSync)
{
    // Same identity check for DHE_RSA, where the asynchronous path is
    // the ServerKeyExchange *signature* rather than the pre-master
    // decrypt. RSA signing is deterministic, so the offloaded SKX must
    // match the synchronous one bit for bit.
    constexpr auto suite = ssl::CipherSuiteId::DHE_RSA_3DES_EDE_CBC_SHA;
    auto sync_transcript = captureTranscript(nullptr, suite);

    serve::CryptoPool pool(2);
    serve::PooledProvider pooled(pool);
    auto offload_transcript = captureTranscript(&pooled, suite);

    EXPECT_FALSE(sync_transcript.first.empty());
    EXPECT_FALSE(sync_transcript.second.empty());
    EXPECT_EQ(sync_transcript.first, offload_transcript.first);
    EXPECT_EQ(sync_transcript.second, offload_transcript.second);
}

// ---------------------------------------------------------------------
// ServeEngine

serve::ServeConfig
engineConfig()
{
    serve::ServeConfig cfg;
    cfg.certificate = &test::testServerCert();
    cfg.privateKey = test::testKey1024().priv;
    cfg.connectionsPerWorker = 12;
    cfg.concurrentPerWorker = 4;
    cfg.bulkBytes = 4096;
    cfg.recordBytes = 1024;
    return cfg;
}

TEST(ServeEngine, SingleWorkerCompletesAllConnections)
{
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 1;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.fullHandshakes() + stats.resumedHandshakes(), 12u);
    EXPECT_EQ(stats.bulkBytesMoved(), 12u * 4096u);
    EXPECT_EQ(stats.perWorker.size(), 1u);
}

TEST(ServeEngine, FourWorkersCompleteAllConnections)
{
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 4;
    cfg.connectionsPerWorker = 6;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.fullHandshakes() + stats.resumedHandshakes(), 24u);
    EXPECT_EQ(stats.bulkBytesMoved(), 24u * 4096u);
    EXPECT_EQ(stats.perWorker.size(), 4u);
    for (const auto &w : stats.perWorker)
        EXPECT_EQ(w.fullHandshakes + w.resumedHandshakes, 6u);
}

TEST(ServeEngine, SessionsResumeAcrossWorkers)
{
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 16;
    cfg.concurrentPerWorker = 2;
    cfg.resumeFraction = 0.8;
    cfg.bulkBytes = 0;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.fullHandshakes() + stats.resumedHandshakes(), 32u);
    // With 80% of connections offering a session and both workers
    // feeding one sharded store, a healthy number must resume.
    EXPECT_GT(stats.resumedHandshakes(), 0u);
}

TEST(ServeEngine, OffloadRunParksSessions)
{
    serve::CryptoPool pool(1);
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 8;
    cfg.cryptoPool = &pool;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.fullHandshakes() + stats.resumedHandshakes(), 16u);
    // An RSA-1024 decrypt takes far longer than a sweep iteration, so
    // offloaded handshakes must actually park (this is the mechanism
    // the engine exists to exercise). RSA key transport parks only at
    // the pre-master decrypt, never at signing.
    EXPECT_GT(stats.parkEvents(), 0u);
    EXPECT_EQ(stats.parkEventsDecrypt(), stats.parkEvents());
    EXPECT_EQ(stats.parkEventsSign(), 0u);
    EXPECT_GT(pool.completedJobs(), 0u);
}

TEST(ServeEngine, DheOffloadRunParksAtSigning)
{
    serve::CryptoPool pool(1);
    serve::ServeConfig cfg = engineConfig();
    cfg.suite = ssl::CipherSuiteId::DHE_RSA_3DES_EDE_CBC_SHA;
    cfg.workers = 2;
    cfg.connectionsPerWorker = 6;
    cfg.cryptoPool = &pool;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.fullHandshakes() + stats.resumedHandshakes(), 12u);
    // Every full DHE handshake submits exactly one sign job to the
    // pool, and the client key exchange involves no RSA private
    // operation, so any park the workers observe must be a sign park.
    // (Whether a worker *sees* the park is a race against the crypto
    // thread — the pool can finish the signature before the next
    // sweep — so the observed count is not asserted; deterministic
    // park/resume coverage lives in SignParking.* via StallProvider.)
    EXPECT_EQ(pool.completedJobs(), stats.fullHandshakes());
    EXPECT_EQ(stats.parkEventsDecrypt(), 0u);
    EXPECT_EQ(stats.parkEvents(), stats.parkEventsSign());
}

TEST(ServeEngine, ExternalStoreIsUsed)
{
    ssl::ShardedSessionCache store(4);
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 1;
    cfg.connectionsPerWorker = 4;
    cfg.bulkBytes = 0;
    cfg.sessionStore = &store;
    serve::ServeEngine engine(std::move(cfg));
    engine.run();
    EXPECT_EQ(&engine.sessionStore(), &store);
    EXPECT_GT(store.size(), 0u);
}

// ---------------------------------------------------------------------
// The serving key's bignum backend survives per-thread replication

/** The test key's components on bn64 (same modulus as testServerCert). */
std::shared_ptr<crypto::RsaPrivateKey>
bn64ServerKey()
{
    const crypto::RsaPrivateKey &k = *test::testKey1024().priv;
    return std::make_shared<crypto::RsaPrivateKey>(
        k.publicKey().n, k.publicKey().e, k.d(), k.p(), k.q(),
        bn::bn64Engine());
}

/**
 * Records the backend of the key behind every private-key decrypt the
 * workers run.
 */
class BackendRecordingProvider final : public ForwardingProvider
{
  public:
    std::atomic<uint64_t> bn32Decrypts{0};
    std::atomic<uint64_t> bn64Decrypts{0};

    const char *name() const override { return "backend-recording"; }
    Bytes
    rsaDecrypt(const crypto::RsaPrivateKey &key,
               const Bytes &cipher) override
    {
        (key.bnEngine().backend() == bn::BnBackend::Bn64 ? bn64Decrypts
                                                          : bn32Decrypts)
            .fetch_add(1, std::memory_order_relaxed);
        return inner_.rsaDecrypt(key, cipher);
    }
};

TEST(ServeEngine, WorkersDecryptOnTheKeysEngine)
{
    BackendRecordingProvider recorder;
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 4;
    cfg.bulkBytes = 0;
    cfg.privateKey = bn64ServerKey();
    cfg.provider = &recorder;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    ASSERT_EQ(stats.fullHandshakes(), 8u);
    // One synchronous decrypt per full handshake, each on a worker's
    // replica of the configured key: every one must run on bn64.
    EXPECT_EQ(recorder.bn64Decrypts.load(), 8u);
    EXPECT_EQ(recorder.bn32Decrypts.load(), 0u);
}

TEST(ServeEngine, CryptoPoolReplicasKeepTheKeysEngine)
{
    // Pool threads decrypt on their own replicas, outside any provider,
    // so the check reads the keys-built-per-backend counters: every key
    // the run builds (worker replicas, then pool replicas of those)
    // must be bn64.
    auto key = bn64ServerKey(); // built before the counters are read
    auto keysBuilt = [](const char *backend) {
        return obs::MetricsRegistry::global().snapshot().counter(
            std::string("bn.keys.") + backend);
    };
    const uint64_t bn32Before = keysBuilt("bn32");
    const uint64_t bn64Before = keysBuilt("bn64");

    serve::CryptoPool pool(1);
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 4;
    cfg.bulkBytes = 0;
    cfg.privateKey = key;
    cfg.cryptoPool = &pool;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    ASSERT_EQ(stats.fullHandshakes(), 8u);
    ASSERT_GT(pool.completedJobs(), 0u);
    EXPECT_EQ(keysBuilt("bn32") - bn32Before, 0u);
    // Two worker replicas plus at least one pool replica.
    EXPECT_GT(keysBuilt("bn64") - bn64Before, 2u);
}

TEST(ServeEngine, RunOnItsOwnRegistryAddsNoGlobalShard)
{
    // Every thread that writes to a registry gets a shard the registry
    // keeps; the global one is never destroyed. A run wired to its own
    // registry must leave the global one alone, or each run's fresh
    // workers pin two more shards for the life of the process.
    obs::MetricsRegistry registry;
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 2;
    cfg.metrics = &registry;
    // This thread builds the worker key replicas, which count in the
    // global registry: give it its shard before the count is read.
    cfg.privateKey->replica();
    const size_t before = obs::MetricsRegistry::global().shardCount();

    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.fullHandshakes() + stats.resumedHandshakes(), 24u);
    EXPECT_GT(stats.metrics.counter("record.records_out"), 0u);
    EXPECT_EQ(obs::MetricsRegistry::global().shardCount(), before);
}

// ---------------------------------------------------------------------
// Data-plane session mode (batched gather flush)

TEST(DataPlane, BatchedFlushMovesEveryBulkByte)
{
    // bulkBatchRecords > 0: the bulk phase goes out as gather-sends of
    // up to N record-sized spans. Byte accounting must match the
    // legacy per-record mode exactly, and the batched sends must show
    // up in both the worker stats and the serve.* counters.
    obs::MetricsRegistry registry;
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 6;
    cfg.bulkBytes = 10000; // deliberately not a record multiple
    cfg.recordBytes = 1024;
    cfg.bulkBatchRecords = 4;
    cfg.metrics = &registry;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();

    EXPECT_EQ(stats.fullHandshakes() + stats.resumedHandshakes(), 12u);
    EXPECT_EQ(stats.bulkBytesMoved(), 12u * 10000u);
    // 10000 bytes at 1024/record = 10 records per connection, flushed
    // in batches of at most 4.
    EXPECT_EQ(stats.dataPlaneRecords(), 12u * 10u);
    EXPECT_GE(stats.dataPlaneFlushes(), 12u * 3u);
    EXPECT_EQ(stats.metrics.counter("serve.dataplane_records"),
              stats.dataPlaneRecords());
    EXPECT_EQ(stats.metrics.counter("serve.dataplane_flushes"),
              stats.dataPlaneFlushes());
}

TEST(DataPlane, LegacyModeReportsNoDataPlaneActivity)
{
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 1;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.bulkBytesMoved(), 12u * 4096u);
    EXPECT_EQ(stats.dataPlaneFlushes(), 0u);
    EXPECT_EQ(stats.dataPlaneRecords(), 0u);
}

TEST(DataPlane, BatchedFlushStaysZeroAllocInSteadyState)
{
    // The end-to-end form of the bench gate: a multi-worker data-plane
    // run in which every record is laid out in a per-session arena and
    // accepted whole by the transport. The record.scratch_grows that
    // do occur happen during each session's first records (cold
    // arenas); record.pending_spills must be identically zero — the
    // in-memory transport never refuses.
    obs::MetricsRegistry registry;
    serve::ServeConfig cfg = engineConfig();
    cfg.workers = 2;
    cfg.connectionsPerWorker = 4;
    cfg.bulkBytes = 65536;
    cfg.recordBytes = 4096;
    cfg.bulkBatchRecords = 8;
    cfg.metrics = &registry;
    serve::ServeEngine engine(std::move(cfg));
    serve::ServeStats stats = engine.run();
    EXPECT_EQ(stats.bulkBytesMoved(), 8u * 65536u);
    EXPECT_EQ(stats.metrics.counter("record.pending_spills"), 0u);
    // Each connection's arena grows a bounded number of times while
    // warming (geometric doubling to one record image), never per
    // record: 16 flushes x 8 records per connection would otherwise
    // show hundreds of growth events.
    EXPECT_LE(stats.metrics.counter("record.scratch_grows"),
              8u * 24u);
}

TEST(ServeEngine, RejectsMissingIdentity)
{
    serve::ServeConfig cfg;
    cfg.connectionsPerWorker = 1;
    EXPECT_THROW(serve::ServeEngine e(std::move(cfg)),
                 std::invalid_argument);
}

} // anonymous namespace
