/**
 * @file
 * RSA tests: keygen invariants, encrypt/decrypt, sign/verify, CRT
 * correctness against plain modexp, blinding equivalence and tamper
 * rejection.
 */

#include <gtest/gtest.h>

#include "bn/engine.hh"
#include "crypto/rsa.hh"
#include "util/bytes.hh"
#include "util/rng.hh"

#include "testkeys.hh"

namespace
{

using namespace ssla;
using namespace ssla::crypto;
using bn::BigNum;

RandomPool &
testPool()
{
    static RandomPool pool(toBytes("rsa-tests"));
    return pool;
}

TEST(RsaKeygen, ComponentInvariants)
{
    const RsaKeyPair &kp = test::testKey512();
    const RsaPrivateKey &priv = *kp.priv;

    EXPECT_EQ(kp.pub.bits(), 512u);
    EXPECT_EQ(priv.p() * priv.q(), kp.pub.n);
    EXPECT_NE(priv.p(), priv.q());
    // e*d == 1 mod phi.
    BigNum phi = (priv.p() - BigNum(1)) * (priv.q() - BigNum(1));
    EXPECT_TRUE(BigNum::modMul(kp.pub.e, priv.d(), phi).isOne());
}

TEST(RsaKeygen, RequestedSizes)
{
    EXPECT_EQ(test::testKey1024().pub.bits(), 1024u);
    EXPECT_EQ(test::testKey1024().pub.blockLen(), 128u);
    EXPECT_EQ(test::testKey512().pub.blockLen(), 64u);
}

TEST(RsaKeygen, RejectsBadParameters)
{
    auto rng = test::seededRng(1);
    EXPECT_THROW(rsaGenerateKey(64, rng), std::invalid_argument);
    EXPECT_THROW(rsaGenerateKey(512, rng, 4), std::invalid_argument);
}

TEST(RsaKeygen, PrivateKeyValidatesConsistency)
{
    const RsaPrivateKey &a = *test::testKey512().priv;
    // n != p*q must be rejected.
    EXPECT_THROW(RsaPrivateKey(a.publicKey().n + BigNum(2),
                               a.publicKey().e, a.d(), a.p(), a.q(),
                               a.bnEngine()),
                 std::invalid_argument);
}

TEST(Rsa, RawRoundTripIdentity)
{
    const RsaKeyPair &kp = test::testKey512();
    Xoshiro256 rng(4);
    for (int i = 0; i < 10; ++i) {
        BigNum m = BigNum::fromBytesBE(rng.bytes(40));
        BigNum c = rsaPublicRaw(kp.pub, m);
        EXPECT_EQ(kp.priv->privateRaw(c), m);
    }
}

TEST(Rsa, CrtMatchesPlainModExp)
{
    const RsaKeyPair &kp = test::testKey512();
    Xoshiro256 rng(5);
    for (int i = 0; i < 5; ++i) {
        BigNum c = BigNum::fromBytesBE(rng.bytes(50));
        BigNum via_crt = kp.priv->privateRaw(c, false);
        BigNum plain = bn::bn32Engine().modExp(c, kp.priv->d(), kp.pub.n);
        EXPECT_EQ(via_crt, plain);
    }
}

TEST(Rsa, BlindingDoesNotChangeResult)
{
    const RsaKeyPair &kp = test::testKey512();
    Xoshiro256 rng(6);
    for (int i = 0; i < 5; ++i) {
        BigNum c = BigNum::fromBytesBE(rng.bytes(48));
        EXPECT_EQ(kp.priv->privateRaw(c, true),
                  kp.priv->privateRaw(c, false));
    }
}

TEST(Rsa, BlindingStableAcrossManyUses)
{
    // The blinding pair squares each use and refreshes periodically;
    // results must stay correct throughout.
    const RsaKeyPair &kp = test::testKey512();
    BigNum c = BigNum::fromDecimal("123456789");
    BigNum expect = kp.priv->privateRaw(c, false);
    for (int i = 0; i < 80; ++i)
        EXPECT_EQ(kp.priv->privateRaw(c, true), expect) << "use " << i;
}

TEST(Rsa, RawInputOutOfRangeThrows)
{
    const RsaKeyPair &kp = test::testKey512();
    EXPECT_THROW(rsaPublicRaw(kp.pub, kp.pub.n), std::domain_error);
    EXPECT_THROW(kp.priv->privateRaw(kp.pub.n + BigNum(1)),
                 std::domain_error);
}

TEST(Rsa, EncryptDecryptRoundTrip)
{
    const RsaKeyPair &kp = test::testKey1024();
    for (size_t len : {0u, 1u, 48u, 100u, 117u}) {
        Bytes msg(len);
        for (size_t i = 0; i < len; ++i)
            msg[i] = static_cast<uint8_t>(i * 7);
        Bytes cipher = rsaPublicEncrypt(kp.pub, msg, testPool());
        EXPECT_EQ(cipher.size(), kp.pub.blockLen());
        EXPECT_EQ(rsaPrivateDecrypt(*kp.priv, cipher), msg);
    }
}

TEST(Rsa, EncryptionIsRandomized)
{
    const RsaKeyPair &kp = test::testKey1024();
    Bytes msg = toBytes("same message");
    Bytes c1 = rsaPublicEncrypt(kp.pub, msg, testPool());
    Bytes c2 = rsaPublicEncrypt(kp.pub, msg, testPool());
    EXPECT_NE(c1, c2); // random PKCS#1 type-2 padding
}

TEST(Rsa, DecryptRejectsTamperedCiphertext)
{
    const RsaKeyPair &kp = test::testKey1024();
    Bytes cipher =
        rsaPublicEncrypt(kp.pub, toBytes("attack at dawn"), testPool());
    cipher[10] ^= 0x01;
    EXPECT_THROW(rsaPrivateDecrypt(*kp.priv, cipher),
                 std::runtime_error);
}

TEST(Rsa, DecryptRejectsWrongLength)
{
    const RsaKeyPair &kp = test::testKey1024();
    EXPECT_THROW(rsaPrivateDecrypt(*kp.priv, Bytes(127)),
                 std::invalid_argument);
}

TEST(Rsa, DecryptWithWrongKeyFails)
{
    Bytes cipher = rsaPublicEncrypt(test::testKey1024().pub,
                                    toBytes("secret"), testPool());
    EXPECT_THROW(rsaPrivateDecrypt(*test::otherKey1024().priv, cipher),
                 std::runtime_error);
}

TEST(Rsa, SignVerifyRoundTrip)
{
    const RsaKeyPair &kp = test::testKey1024();
    Bytes digest(36, 0x5c); // MD5||SHA1-sized payload
    Bytes sig = rsaSign(*kp.priv, digest);
    EXPECT_EQ(sig.size(), kp.pub.blockLen());
    EXPECT_TRUE(rsaVerify(kp.pub, digest, sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature)
{
    const RsaKeyPair &kp = test::testKey1024();
    Bytes digest(36, 0x5c);
    Bytes sig = rsaSign(*kp.priv, digest);
    sig[0] ^= 1;
    EXPECT_FALSE(rsaVerify(kp.pub, digest, sig));
}

TEST(Rsa, VerifyRejectsTamperedMessage)
{
    const RsaKeyPair &kp = test::testKey1024();
    Bytes digest(36, 0x5c);
    Bytes sig = rsaSign(*kp.priv, digest);
    digest[0] ^= 1;
    EXPECT_FALSE(rsaVerify(kp.pub, digest, sig));
}

TEST(Rsa, VerifyRejectsWrongKey)
{
    Bytes digest(36, 0x11);
    Bytes sig = rsaSign(*test::testKey1024().priv, digest);
    EXPECT_FALSE(rsaVerify(test::otherKey1024().pub, digest, sig));
}

TEST(Rsa, VerifyRejectsWrongLengthSignature)
{
    const RsaKeyPair &kp = test::testKey1024();
    EXPECT_FALSE(rsaVerify(kp.pub, Bytes(36), Bytes(64)));
}

TEST(Rsa, CrossKeySizesInterop)
{
    // The same code paths must work at both paper key sizes.
    for (const RsaKeyPair *kp :
         {&test::testKey512(), &test::testKey1024()}) {
        Bytes msg = toBytes("pre-master-secret-48-bytes-like-payload!");
        Bytes c = rsaPublicEncrypt(kp->pub, msg, testPool());
        EXPECT_EQ(rsaPrivateDecrypt(*kp->priv, c), msg);
    }
}

} // anonymous namespace
