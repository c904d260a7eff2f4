/**
 * @file
 * RSA public-key cryptosystem: key generation, PKCS#1 v1.5
 * encryption/decryption and signing/verification.
 *
 * The private-key operation is decomposed into the paper's six Table 7
 * steps, each bracketed by a cycle probe:
 *   1 rsa_init          internal buffer setup
 *   2 data_to_bn        octet string -> multi-precision integer
 *   3 blinding          Kocher-style timing-attack blinding
 *   4 rsa_computation   the CRT modular exponentiations
 *   5 bn_to_data        integer -> octet string
 *   6 block_parsing     PKCS#1 block removal
 */

#ifndef SSLA_CRYPTO_RSA_HH
#define SSLA_CRYPTO_RSA_HH

#include <memory>

#include "bn/bignum.hh"
#include "bn/engine.hh"
#include "bn/montgomery.hh"
#include "bn/prime.hh"
#include "crypto/rand.hh"

namespace ssla::crypto
{

/** The public half of an RSA key. */
struct RsaPublicKey
{
    bn::BigNum n; ///< modulus
    bn::BigNum e; ///< public exponent

    /** Modulus size in bytes (the PKCS#1 block length). */
    size_t blockLen() const { return n.byteLength(); }

    /** Modulus size in bits. */
    size_t bits() const { return n.bitLength(); }
};

/**
 * A complete RSA private key with CRT parameters, per-modulus
 * Montgomery contexts and blinding state.
 *
 * Not thread-safe: the blinding state mutates on each private-key
 * operation (one key per connection/thread, as OpenSSL-era servers
 * effectively did under their locks).
 */
class RsaPrivateKey
{
  public:
    /**
     * Assemble from components (validates basic consistency). All
     * Montgomery contexts bind to @p engine, which is the backend every
     * private-key operation on this key runs on.
     */
    RsaPrivateKey(bn::BigNum n, bn::BigNum e, bn::BigNum d, bn::BigNum p,
                  bn::BigNum q, const bn::Engine &engine);

    /**
     * An independent copy for another thread: same components, same
     * engine, its own Montgomery scratch and fresh blinding. Every
     * per-thread replica (ServeEngine workers, CryptoPool threads) is
     * made here, so the backend survives replication.
     */
    std::unique_ptr<RsaPrivateKey> replica() const;

    /** The bignum backend this key's Montgomery contexts run on. */
    const bn::Engine &bnEngine() const { return *engine_; }

    const RsaPublicKey &publicKey() const { return pub_; }
    const bn::BigNum &d() const { return d_; }
    const bn::BigNum &p() const { return p_; }
    const bn::BigNum &q() const { return q_; }

    size_t blockLen() const { return pub_.blockLen(); }
    size_t bits() const { return pub_.bits(); }

    /**
     * The raw private-key operation c^d mod n via CRT, with blinding.
     * @param use_blinding disable only for deterministic tests
     */
    bn::BigNum privateRaw(const bn::BigNum &c,
                          bool use_blinding = true) const;

  private:
    void refreshBlinding() const;

    RsaPublicKey pub_;
    const bn::Engine *engine_; ///< backend singleton, never null
    bn::BigNum d_, p_, q_;
    bn::BigNum dp_, dq_, qinv_; ///< CRT exponents and coefficient
    std::unique_ptr<bn::MontgomeryCtx> montN_, montP_, montQ_;

    // Kocher blinding pair (r^e, r^-1), squared after each use and
    // periodically refreshed, as OpenSSL does.
    mutable bn::BigNum blindFactor_;
    mutable bn::BigNum unblindFactor_;
    mutable int blindUses_ = 0;
    mutable RandomPool blindPool_;
};

/** A generated key pair. */
struct RsaKeyPair
{
    RsaPublicKey pub;
    std::shared_ptr<RsaPrivateKey> priv;
};

/**
 * Generate an RSA key pair. The private key runs on bn32, the paper's
 * profiling anchor; re-key through the RsaPrivateKey constructor to
 * serve it on another engine.
 *
 * @param bits modulus size (e.g. 512, 1024 — the paper's two sizes)
 * @param rng randomness source for the primes
 * @param e public exponent (default 65537)
 */
RsaKeyPair rsaGenerateKey(size_t bits, const bn::RngFunc &rng,
                          uint64_t e = 65537);

/** The raw public-key operation m^e mod n (on bn32). */
bn::BigNum rsaPublicRaw(const RsaPublicKey &key, const bn::BigNum &m);

/** PKCS#1 v1.5 encryption of @p data under the public key. */
Bytes rsaPublicEncrypt(const RsaPublicKey &key, const Bytes &data,
                       RandomPool &pool);

/**
 * PKCS#1 v1.5 decryption (the Table 7 operation).
 * @throws std::runtime_error on padding failure
 */
Bytes rsaPrivateDecrypt(const RsaPrivateKey &key, const Bytes &cipher);

/** Sign @p digest_data (already hashed) with PKCS#1 type-1 padding. */
Bytes rsaSign(const RsaPrivateKey &key, const Bytes &digest_data);

/** Verify a type-1 signature over @p digest_data. */
bool rsaVerify(const RsaPublicKey &key, const Bytes &digest_data,
               const Bytes &signature);

} // namespace ssla::crypto

#endif // SSLA_CRYPTO_RSA_HH
