/**
 * @file
 * Pluggable crypto provider layer — the dispatch seam between the SSL
 * stack and the crypto kernels.
 *
 * Every cipher, digest and HMAC instance (and every RSA private-key
 * operation) used by the record layer, the handshake state machines,
 * the web simulator and the benches is created through a Provider.
 * Two providers ship, both synchronous:
 *
 *  - ScalarProvider: the bare scalar kernels.
 *  - InstrumentedProvider: a decorator that brackets each record-level
 *    operation with the perf probes the paper's Table 2/3 breakdowns
 *    use ("mac", "pri_encryption", "pri_decryption"), so the cycle
 *    accounting lives in the dispatch layer instead of ad-hoc call
 *    sites.
 *
 * The one asynchronous seam is the RSA private-key operation
 * (submitRsaDecrypt/submitRsaSign returning an RsaJob): the base class
 * resolves it inline, a pool-backed decorator (serve::PooledProvider)
 * completes it on a crypto thread.
 *
 * A provider does not choose the bignum backend: an RSA private-key
 * operation runs on its key's engine (RsaPrivateKey::bnEngine()), and
 * DH and the RSA public op run on bn32.
 *
 * The record MAC is a first-class provider operation (rather than a
 * digest-level composition at the call site) because it is the unit a
 * hardware engine would accept: the paper's Figure 6 control unit
 * fetches whole record descriptors, not individual hash blocks.
 */

#ifndef SSLA_CRYPTO_PROVIDER_HH
#define SSLA_CRYPTO_PROVIDER_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "crypto/cipher.hh"
#include "crypto/digest.hh"
#include "crypto/hmac.hh"
#include "crypto/rsa.hh"
#include "util/iovec.hh"

namespace ssla::crypto
{

/**
 * Upper bound on any record MAC length (SHA-1, 20 bytes). Callers of
 * the span-based MAC surface size stack/arena storage with this.
 */
constexpr size_t maxRecordMacLen = 20;

/**
 * One direction's record MAC, keyed once when the direction's cipher
 * state is installed: the protocol version selects the construction
 * (0x0300 = SSLv3 pad-concatenation MAC, 0x0301+ = TLS 1.0 HMAC), and
 * the MAC secret is absorbed into that construction's keyed inner and
 * outer states (SSLv3: secret || pad1 and secret || pad2; TLS: the
 * HMAC ipad/opad blocks). A record's MAC then hashes only its header
 * and payload, and allocates nothing.
 */
class RecordMacSpec
{
  public:
    /** SHA-1 SSLv3 MAC with an empty secret (an inactive direction). */
    RecordMacSpec() : RecordMacSpec(DigestAlg::SHA1, Bytes(), 0x0300) {}
    RecordMacSpec(DigestAlg alg, const Bytes &secret, uint16_t version);

    uint16_t version() const { return version_; }
    const KeyedMac &keys() const { return keys_; }

  private:
    uint16_t version_;
    KeyedMac keys_;
};

/**
 * Thrown (as a job error) when an asynchronous engine refuses new work
 * because its queue is full. The SSL server maps it to the
 * internal_error alert — the failure is local overload, not a protocol
 * violation by the peer.
 */
class ProviderOverloadError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Thrown (as a job error) when deadline-aware admission sheds a queued
 * job whose queue wait already exceeded its deadline budget — the RSA
 * cycles it would burn cannot save its handshake, so the engine fails
 * it before touching a Montgomery context. A species of overload, so
 * it maps to the same internal_error alert.
 */
class ProviderDeadlineError : public ProviderOverloadError
{
  public:
    using ProviderOverloadError::ProviderOverloadError;
};

/**
 * Thrown (as a job error) when the crypto engine itself failed — a
 * supervisor declared the executing thread dead and failed the
 * in-flight job so the parked session terminates instead of hanging.
 * Maps to internal_error: the fault is local, not the peer's.
 */
class ProviderFailureError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Handle to a (possibly asynchronous) RSA private-key operation.
 *
 * An RsaJob owns its input bytes, so the submitting state machine may
 * discard the handshake message and service other sessions while the
 * operation is in flight. ready() is a lock-free poll: a serving
 * worker parks the session and revisits it instead of blocking, the
 * paper's Section 6.2 "do other useful work while the crypto operation
 * is executed" applied across connections.
 */
class RsaJob
{
  public:
    /** Shared completion state (public so engines can resolve jobs). */
    struct State
    {
        std::mutex m;
        std::condition_variable cv;
        std::atomic<bool> ready{false};
        std::atomic<bool> cancelled{false};
        /** First-wins resolution guard (see finish()). */
        std::atomic<bool> resolved{false};
        Bytes result;
        std::exception_ptr error;

        /**
         * Publish the result (or error) and wake any waiter.
         *
         * First writer wins: a job can legitimately be resolved from
         * two sides at once — the crypto thread completing it versus a
         * supervisor failing it after declaring that thread stalled,
         * or a cancel-path resolution racing the worker's own — and
         * the loser's outcome must not clobber what a waiter already
         * observed. Late calls are silently dropped.
         *
         * ready is set under m: wait() tests it under m, so a waiter
         * either sees it set or is already blocked on cv when the
         * notify comes. Set after m is released, it could land between
         * a waiter's test and its block, and the notify would be lost.
         */
        void
        finish(Bytes value, std::exception_ptr err)
        {
            if (resolved.exchange(true, std::memory_order_acq_rel))
                return;
            {
                std::lock_guard<std::mutex> lock(m);
                result = std::move(value);
                error = std::move(err);
                ready.store(true, std::memory_order_release);
            }
            cv.notify_all();
        }
    };

    RsaJob() = default;
    explicit RsaJob(std::shared_ptr<State> state)
        : state_(std::move(state))
    {}

    /** Non-blocking completion poll (the parking predicate). */
    bool
    ready() const
    {
        return state_ && state_->ready.load(std::memory_order_acquire);
    }

    /** Block until done; returns the result or rethrows the error. */
    Bytes wait();

    bool valid() const { return state_ != nullptr; }

    /**
     * Request cancellation. A queued job the engine has not started is
     * skipped (never executed, so it cannot touch state the submitter
     * has since torn down); a job already executing completes into the
     * shared state, which outlives both sides by construction. The
     * handle stays pollable either way. No-op on an empty handle.
     */
    void
    cancel()
    {
        if (state_)
            state_->cancelled.store(true, std::memory_order_release);
    }

    /** True when cancel() was requested (engines poll this). */
    bool
    cancelRequested() const
    {
        return state_ &&
               state_->cancelled.load(std::memory_order_acquire);
    }

    /** Drop the handle (a parked session resets after resolving). */
    void reset() { state_.reset(); }

  private:
    std::shared_ptr<State> state_;
};

/**
 * A crypto engine: the factory for all cipher/digest/HMAC instances
 * plus the dispatch point for record MACs and RSA private-key
 * operations.
 */
class Provider
{
  public:
    virtual ~Provider() = default;

    /** Short name for logs and tests ("scalar", "instrumented", ...). */
    virtual const char *name() const = 0;

    /** Create a bulk-cipher instance (see Cipher). */
    virtual std::unique_ptr<Cipher> createCipher(CipherAlg alg,
                                                 const Bytes &key,
                                                 const Bytes &iv,
                                                 bool encrypt) = 0;

    /** Create a hash instance (see Digest). */
    virtual std::unique_ptr<Digest> createDigest(DigestAlg alg) = 0;

    /** Create an HMAC instance keyed with @p key. */
    virtual std::unique_ptr<Hmac> createHmac(DigestAlg alg,
                                             const Bytes &key) = 0;

    /**
     * Compute the record MAC for one fragment (construction selected
     * by spec.version; see RecordMacSpec) into @p mac_out, which must
     * hold at least maxRecordMacLen bytes. Returns the MAC length
     * written. @p data and @p mac_out may belong to the same backing
     * buffer (MAC appended behind the payload) but must not overlap.
     */
    virtual size_t recordMac(const RecordMacSpec &spec, uint64_t seq,
                             uint8_t type, ConstSpan data,
                             uint8_t *mac_out) = 0;

    /** RSA private-key decryption (PKCS#1 v1.5). */
    virtual Bytes rsaDecrypt(const RsaPrivateKey &key,
                             const Bytes &cipher) = 0;

    /** RSA private-key signature (PKCS#1 type 1). */
    virtual Bytes rsaSign(const RsaPrivateKey &key,
                          const Bytes &digest_data) = 0;

    /**
     * Submit an RSA private-key decryption for (possibly asynchronous)
     * completion. The job owns @p cipher. The base implementation
     * computes inline, so synchronous providers resolve at submit time
     * and callers that poll ready() immediately proceed unchanged;
     * pool-backed providers (serve::PooledProvider) complete the job on
     * a crypto thread while the submitter multiplexes other sessions.
     */
    virtual RsaJob submitRsaDecrypt(const RsaPrivateKey &key,
                                    Bytes cipher);

    /** Asynchronous counterpart of rsaSign (same contract as above). */
    virtual RsaJob submitRsaSign(const RsaPrivateKey &key,
                                 Bytes digest_data);

    /**
     * A backend this provider reports; the base (and so every shipped
     * provider) says bn32. Informational only: it selects nothing. A
     * private-key operation runs on the key's own engine
     * (RsaPrivateKey::bnEngine()), and keyless public-key math (DH,
     * the RSA public op) runs on bn32.
     */
    virtual const bn::Engine &bnEngine() const;
};

/** The plain synchronous scalar-kernel provider. */
class ScalarProvider final : public Provider
{
  public:
    const char *name() const override { return "scalar"; }
    std::unique_ptr<Cipher> createCipher(CipherAlg alg, const Bytes &key,
                                         const Bytes &iv,
                                         bool encrypt) override;
    std::unique_ptr<Digest> createDigest(DigestAlg alg) override;
    std::unique_ptr<Hmac> createHmac(DigestAlg alg,
                                     const Bytes &key) override;
    size_t recordMac(const RecordMacSpec &spec, uint64_t seq,
                     uint8_t type, ConstSpan data,
                     uint8_t *mac_out) override;
    Bytes rsaDecrypt(const RsaPrivateKey &key,
                     const Bytes &cipher) override;
    Bytes rsaSign(const RsaPrivateKey &key,
                  const Bytes &digest_data) override;
};

/**
 * Decorator adding the paper's per-operation cycle probes around
 * another provider's record-level operations. Ciphers created through
 * it self-report as "pri_encryption"/"pri_decryption" per process()
 * call and record MACs as "mac" — the names Table 2/3 and the web
 * simulator's Figure 2 breakdown aggregate.
 */
class InstrumentedProvider final : public Provider
{
  public:
    /** Wrap @p inner (not owned; must outlive this provider). */
    explicit InstrumentedProvider(Provider &inner) : inner_(inner) {}

    const char *name() const override { return "instrumented"; }
    std::unique_ptr<Cipher> createCipher(CipherAlg alg, const Bytes &key,
                                         const Bytes &iv,
                                         bool encrypt) override;
    std::unique_ptr<Digest> createDigest(DigestAlg alg) override;
    std::unique_ptr<Hmac> createHmac(DigestAlg alg,
                                     const Bytes &key) override;
    size_t recordMac(const RecordMacSpec &spec, uint64_t seq,
                     uint8_t type, ConstSpan data,
                     uint8_t *mac_out) override;
    Bytes rsaDecrypt(const RsaPrivateKey &key,
                     const Bytes &cipher) override;
    Bytes rsaSign(const RsaPrivateKey &key,
                  const Bytes &digest_data) override;

  private:
    Provider &inner_;
};

/** The process-wide scalar provider singleton. */
Provider &scalarProvider();

/**
 * The default provider: the instrumented scalar provider, preserving
 * the library's always-on probe points (a probe with no PerfContext
 * installed costs one branch).
 */
Provider &defaultProvider();

} // namespace ssla::crypto

#endif // SSLA_CRYPTO_PROVIDER_HH
