/**
 * @file
 * Outside-in layer timing for the serving benchmark.
 *
 * The benchmark reaches the engine's layers only through its public
 * seams: a crypto::Provider decorator times every Cipher::process,
 * record MAC and RSA private-key call, and an ssl::SessionStore
 * decorator times every find and store. Each call becomes one span in
 * the calling thread's own buffer; a buffer is one worker thread's
 * life inside one engine run (the "worker run" every span belongs to),
 * stamped when the run is armed and when the thread exits.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crypto/provider.hh"
#include "ssl/session.hh"

namespace perfbench
{

/** Monotonic wall clock in nanoseconds (steady_clock). */
uint64_t nowNs();

enum class SpanKind : uint8_t
{
    Seal,     ///< Cipher::process on an encrypting cipher
    Open,     ///< Cipher::process on a decrypting cipher
    Mac,      ///< Provider::recordMac
    RsaDecrypt,
    RsaSign,
    FindHit,  ///< SessionStore::find that returned a session
    FindMiss, ///< SessionStore::find that returned nothing
    Store,    ///< SessionStore::store
};

constexpr size_t spanKindCount = 8;

const char *spanName(SpanKind kind);

struct Span
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t bytes = 0;
    SpanKind kind = SpanKind::Seal;
};

/** One thread's life inside one armed engine run, with its spans. */
struct WorkerRun
{
    uint64_t id = 0;
    uint64_t thread = 0; ///< hash of the std::thread::id
    uint64_t startNs = 0;
    /** Thread-exit stamp; 0 while the thread is still alive. */
    uint64_t endNs = 0;
    std::vector<Span> spans;
};

/**
 * Collects spans from whatever threads call the decorators while the
 * log is armed. Calls made while disarmed are forwarded but not
 * recorded (engine construction seeds the store from the main thread).
 */
class SpanLog
{
  public:
    SpanLog() = default;
    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    /** Start recording; threads first seen from now on start here. */
    void arm();
    /** Stop recording (call after the engine's threads have joined). */
    void disarm();

    bool armed() const { return armed_.load(std::memory_order_acquire); }

    void record(SpanKind kind, uint64_t start_ns, uint64_t end_ns,
                size_t bytes);

    /** Worker runs recorded since the last take (threads joined). */
    std::vector<std::unique_ptr<WorkerRun>> take();

  private:
    WorkerRun *runForThisThread();

    std::atomic<bool> armed_{false};
    std::atomic<uint64_t> generation_{0};
    uint64_t armedAtNs_ = 0;
    std::mutex m_;
    std::vector<std::unique_ptr<WorkerRun>> runs_; ///< guarded by m_
    uint64_t nextRunId_ = 0;                       ///< guarded by m_
};

/** Provider decorator timing the record-level and RSA operations. */
class TimedProvider final : public ssla::crypto::Provider
{
  public:
    TimedProvider(ssla::crypto::Provider &inner, SpanLog &log)
        : inner_(inner), log_(log)
    {}

    const char *name() const override { return "timed"; }
    std::unique_ptr<ssla::crypto::Cipher>
    createCipher(ssla::crypto::CipherAlg alg, const ssla::Bytes &key,
                 const ssla::Bytes &iv, bool encrypt) override;
    std::unique_ptr<ssla::crypto::Digest>
    createDigest(ssla::crypto::DigestAlg alg) override;
    std::unique_ptr<ssla::crypto::Hmac>
    createHmac(ssla::crypto::DigestAlg alg,
               const ssla::Bytes &key) override;
    size_t recordMac(const ssla::crypto::RecordMacSpec &spec, uint64_t seq,
                     uint8_t type, ssla::ConstSpan data,
                     uint8_t *mac_out) override;
    ssla::Bytes rsaDecrypt(const ssla::crypto::RsaPrivateKey &key,
                           const ssla::Bytes &cipher) override;
    ssla::Bytes rsaSign(const ssla::crypto::RsaPrivateKey &key,
                        const ssla::Bytes &digest_data) override;
    const ssla::bn::Engine &bnEngine() const override
    {
        return inner_.bnEngine();
    }

  private:
    ssla::crypto::Provider &inner_;
    SpanLog &log_;
};

/** SessionStore decorator timing find and store. */
class TimedStore final : public ssla::ssl::SessionStore
{
  public:
    TimedStore(ssla::ssl::SessionStore &inner, SpanLog &log)
        : inner_(inner), log_(log)
    {}

    void store(const ssla::ssl::Session &session) override;
    std::optional<ssla::ssl::Session>
    find(const ssla::Bytes &id) override;
    void remove(const ssla::Bytes &id) override { inner_.remove(id); }

  private:
    ssla::ssl::SessionStore &inner_;
    SpanLog &log_;
};

/**
 * Write every span as one tab-separated line: name, thread, start_ns,
 * end_ns, bytes, worker_run. Returns false if the file cannot be
 * written.
 */
bool writeSpans(const std::string &path,
                const std::vector<std::unique_ptr<WorkerRun>> &runs);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
