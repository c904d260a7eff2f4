/**
 * @file
 * Shared deterministic RSA keys and certificates for the test suite.
 * Key generation is expensive; every test that needs a key reuses
 * these lazily generated, seed-fixed instances. Every key is on bn32,
 * the paper-era engine the Table 7/8/9 tests profile.
 */

#ifndef SSLA_TESTS_TESTKEYS_HH
#define SSLA_TESTS_TESTKEYS_HH

#include "crypto/rsa.hh"
#include "pki/cert.hh"
#include "util/rng.hh"

namespace ssla::test
{

/** Deterministic RngFunc from a Xoshiro seed. */
inline bn::RngFunc
seededRng(uint64_t seed)
{
    auto rng = std::make_shared<Xoshiro256>(seed);
    return [rng](uint8_t *out, size_t len) { rng->fill(out, len); };
}

/** A fixed 512-bit key pair (paper's small key size). */
inline const crypto::RsaKeyPair &
testKey512()
{
    static const crypto::RsaKeyPair kp =
        crypto::rsaGenerateKey(512, seededRng(0x512512));
    return kp;
}

/** A fixed 1024-bit key pair (paper's large key size). */
inline const crypto::RsaKeyPair &
testKey1024()
{
    static const crypto::RsaKeyPair kp =
        crypto::rsaGenerateKey(1024, seededRng(0x10241024));
    return kp;
}

/** A second, independent 1024-bit key (wrong-key tests). */
inline const crypto::RsaKeyPair &
otherKey1024()
{
    static const crypto::RsaKeyPair kp =
        crypto::rsaGenerateKey(1024, seededRng(0xdeadbeef));
    return kp;
}

/** A self-signed server certificate over testKey512() — the chaos
 *  tests run thousands of handshakes, so they use the small key. */
inline const pki::Certificate &
testServerCert512()
{
    static const pki::Certificate cert = [] {
        pki::CertificateInfo info;
        info.serial = 43;
        info.issuer = "Unit Test CA";
        info.subject = "unit.test.server.512";
        info.notBefore = 1000;
        info.notAfter = 2000000000;
        info.publicKey = testKey512().pub;
        return pki::Certificate::issue(info, *testKey512().priv);
    }();
    return cert;
}

/** A self-signed server certificate over testKey1024(). */
inline const pki::Certificate &
testServerCert()
{
    static const pki::Certificate cert = [] {
        pki::CertificateInfo info;
        info.serial = 42;
        info.issuer = "Unit Test CA";
        info.subject = "unit.test.server";
        info.notBefore = 1000;
        info.notAfter = 2000000000;
        info.publicKey = testKey1024().pub;
        return pki::Certificate::issue(info, *testKey1024().priv);
    }();
    return cert;
}

} // namespace ssla::test

#endif // SSLA_TESTS_TESTKEYS_HH
