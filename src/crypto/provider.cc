#include "crypto/provider.hh"

#include <stdexcept>

#include "perf/probe.hh"

namespace ssla::crypto
{

// ---------------------------------------------------------------------
// RsaJob

Bytes
RsaJob::wait()
{
    if (!state_)
        throw std::logic_error("RsaJob::wait: empty job");
    std::unique_lock<std::mutex> lock(state_->m);
    state_->cv.wait(lock, [&] {
        return state_->ready.load(std::memory_order_acquire);
    });
    if (state_->error)
        std::rethrow_exception(state_->error);
    return state_->result;
}

// ---------------------------------------------------------------------
// Record MAC (SSLv3 pad-concatenation MAC / TLS HMAC)

namespace
{

/** SSLv3 pad length: 48 bytes for MD5, 40 for SHA-1. */
size_t
ssl3PadLen(DigestAlg alg)
{
    return alg == DigestAlg::MD5 ? 48 : 40;
}

KeyedMac
recordMacKeys(DigestAlg alg, const Bytes &secret, uint16_t version)
{
    if (version >= 0x0301)
        return KeyedMac::hmac(alg, secret);
    Bytes inner = secret;
    inner.resize(secret.size() + ssl3PadLen(alg), 0x36);
    Bytes outer = secret;
    outer.resize(secret.size() + ssl3PadLen(alg), 0x5c);
    return KeyedMac(alg, ConstSpan{inner}, ConstSpan{outer});
}

/**
 * The record MAC over seq || type || [version ||] length || data, the
 * version field present in TLS only. Both constructions are the keyed
 * nested MAC, so they differ only in this header.
 */
size_t
computeRecordMac(const RecordMacSpec &spec, uint64_t seq, uint8_t type,
                 ConstSpan data, uint8_t *mac_out)
{
    uint8_t header[13];
    size_t n = 0;
    for (int i = 7; i >= 0; --i)
        header[n++] = static_cast<uint8_t>(seq >> (8 * i));
    header[n++] = type;
    if (spec.version() >= 0x0301) {
        header[n++] = static_cast<uint8_t>(spec.version() >> 8);
        header[n++] = static_cast<uint8_t>(spec.version());
    }
    header[n++] = static_cast<uint8_t>(data.size() >> 8);
    header[n++] = static_cast<uint8_t>(data.size());
    spec.keys().compute({ConstSpan{header, n}, data}, mac_out);
    return spec.keys().tagSize();
}

} // anonymous namespace

RecordMacSpec::RecordMacSpec(DigestAlg alg, const Bytes &secret,
                             uint16_t version)
    : version_(version), keys_(recordMacKeys(alg, secret, version))
{}

RsaJob
Provider::submitRsaDecrypt(const RsaPrivateKey &key, Bytes cipher)
{
    // Synchronous providers resolve at submit time.
    auto state = std::make_shared<RsaJob::State>();
    Bytes result;
    std::exception_ptr err;
    try {
        result = rsaDecrypt(key, cipher);
    } catch (...) {
        err = std::current_exception();
    }
    state->finish(std::move(result), std::move(err));
    return RsaJob(std::move(state));
}

const bn::Engine &
Provider::bnEngine() const
{
    return bn::bn32Engine();
}

RsaJob
Provider::submitRsaSign(const RsaPrivateKey &key, Bytes digest_data)
{
    auto state = std::make_shared<RsaJob::State>();
    Bytes result;
    std::exception_ptr err;
    try {
        result = rsaSign(key, digest_data);
    } catch (...) {
        err = std::current_exception();
    }
    state->finish(std::move(result), std::move(err));
    return RsaJob(std::move(state));
}

// ---------------------------------------------------------------------
// ScalarProvider

std::unique_ptr<Cipher>
ScalarProvider::createCipher(CipherAlg alg, const Bytes &key,
                             const Bytes &iv, bool encrypt)
{
    return Cipher::create(alg, key, iv, encrypt);
}

std::unique_ptr<Digest>
ScalarProvider::createDigest(DigestAlg alg)
{
    return Digest::create(alg);
}

std::unique_ptr<Hmac>
ScalarProvider::createHmac(DigestAlg alg, const Bytes &key)
{
    return std::make_unique<Hmac>(alg, key);
}

size_t
ScalarProvider::recordMac(const RecordMacSpec &spec, uint64_t seq,
                          uint8_t type, ConstSpan data,
                          uint8_t *mac_out)
{
    return computeRecordMac(spec, seq, type, data, mac_out);
}

Bytes
ScalarProvider::rsaDecrypt(const RsaPrivateKey &key, const Bytes &cipher)
{
    return rsaPrivateDecrypt(key, cipher);
}

Bytes
ScalarProvider::rsaSign(const RsaPrivateKey &key,
                        const Bytes &digest_data)
{
    return crypto::rsaSign(key, digest_data);
}

// ---------------------------------------------------------------------
// InstrumentedProvider

namespace
{

/** Probes each process() call under the paper's record-cipher names. */
class ProbedCipher final : public Cipher
{
  public:
    ProbedCipher(std::unique_ptr<Cipher> inner, const char *probe)
        : inner_(std::move(inner)), probe_(probe)
    {}

    const CipherInfo &info() const override { return inner_->info(); }

    void
    process(const uint8_t *in, uint8_t *out, size_t len) override
    {
        perf::FuncProbe probe(probe_);
        inner_->process(in, out, len);
    }

  private:
    std::unique_ptr<Cipher> inner_;
    const char *probe_; ///< static storage (probe contract)
};

} // anonymous namespace

std::unique_ptr<Cipher>
InstrumentedProvider::createCipher(CipherAlg alg, const Bytes &key,
                                   const Bytes &iv, bool encrypt)
{
    return std::make_unique<ProbedCipher>(
        inner_.createCipher(alg, key, iv, encrypt),
        encrypt ? "pri_encryption" : "pri_decryption");
}

std::unique_ptr<Digest>
InstrumentedProvider::createDigest(DigestAlg alg)
{
    return inner_.createDigest(alg);
}

std::unique_ptr<Hmac>
InstrumentedProvider::createHmac(DigestAlg alg, const Bytes &key)
{
    return inner_.createHmac(alg, key);
}

size_t
InstrumentedProvider::recordMac(const RecordMacSpec &spec, uint64_t seq,
                                uint8_t type, ConstSpan data,
                                uint8_t *mac_out)
{
    perf::FuncProbe probe("mac");
    return inner_.recordMac(spec, seq, type, data, mac_out);
}

Bytes
InstrumentedProvider::rsaDecrypt(const RsaPrivateKey &key,
                                 const Bytes &cipher)
{
    // rsaPrivateDecrypt self-probes ("rsa_private_decryption" and the
    // six Table 7 step probes); no extra bracket here.
    return inner_.rsaDecrypt(key, cipher);
}

Bytes
InstrumentedProvider::rsaSign(const RsaPrivateKey &key,
                              const Bytes &digest_data)
{
    return inner_.rsaSign(key, digest_data);
}

// ---------------------------------------------------------------------
// Process-wide providers

Provider &
scalarProvider()
{
    static ScalarProvider provider;
    return provider;
}

Provider &
defaultProvider()
{
    static InstrumentedProvider provider(scalarProvider());
    return provider;
}

} // namespace ssla::crypto
