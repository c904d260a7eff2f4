/**
 * @file
 * Property-based sweeps: algebraic laws of the bignum layer, the RSA
 * multiplicative structure, CBC error-propagation semantics, and
 * record-layer roundtrips under randomized shapes.
 */

#include <gtest/gtest.h>

#include "bn/engine.hh"
#include "crypto/cipher.hh"
#include "crypto/provider.hh"
#include "crypto/des.hh"
#include "crypto/rsa.hh"
#include "ssl/record.hh"
#include "util/rng.hh"

#include "testkeys.hh"

namespace
{

using namespace ssla;
using bn::BigNum;

const bn::Engine &bn32 = bn::bn32Engine();

BigNum
randomBig(Xoshiro256 &rng, size_t max_bytes)
{
    return BigNum::fromBytesBE(rng.bytes(1 + rng.nextBelow(max_bytes)));
}

class BigNumAlgebra : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(BigNumAlgebra, RingLaws)
{
    Xoshiro256 rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        BigNum a = randomBig(rng, 40);
        BigNum b = randomBig(rng, 40);
        BigNum c = randomBig(rng, 40);

        // Commutativity and associativity.
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ((a * b) * c, a * (b * c));
        // Distributivity.
        EXPECT_EQ(a * (b + c), a * b + a * c);
        // Identities and inverses.
        EXPECT_EQ(a + BigNum(), a);
        EXPECT_EQ(a * BigNum(1), a);
        EXPECT_TRUE((a - a).isZero());
        // Subtraction round-trips.
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ(a - b, -(b - a));
    }
}

TEST_P(BigNumAlgebra, ShiftsArePowersOfTwo)
{
    Xoshiro256 rng(GetParam() ^ 0xff);
    for (int i = 0; i < 30; ++i) {
        BigNum a = randomBig(rng, 24);
        size_t s = rng.nextBelow(70);
        BigNum pow2 = BigNum(1).shiftLeft(s);
        EXPECT_EQ(a.shiftLeft(s), a * pow2);
        EXPECT_EQ(a.shiftRight(s), a / pow2);
        EXPECT_EQ(a.shiftRight(s).shiftLeft(s) + a.mod(pow2), a);
    }
}

TEST_P(BigNumAlgebra, ModularLaws)
{
    Xoshiro256 rng(GetParam() ^ 0xabcd);
    for (int i = 0; i < 25; ++i) {
        Bytes mb = rng.bytes(12);
        mb.back() |= 1;
        mb.front() |= 0x80;
        BigNum m = BigNum::fromBytesBE(mb);
        BigNum a = randomBig(rng, 16).mod(m);
        BigNum b = randomBig(rng, 16).mod(m);

        // Exponent addition law: a^x * a^y == a^(x+y) (mod m).
        BigNum x = randomBig(rng, 2);
        BigNum y = randomBig(rng, 2);
        EXPECT_EQ(BigNum::modMul(bn32.modExp(a, x, m),
                                 bn32.modExp(a, y, m), m),
                  bn32.modExp(a, x + y, m));
        // (ab)^x == a^x b^x (mod m).
        EXPECT_EQ(bn32.modExp(BigNum::modMul(a, b, m), x, m),
                  BigNum::modMul(bn32.modExp(a, x, m),
                                 bn32.modExp(b, x, m), m));
        // mod add/sub consistency.
        EXPECT_EQ(BigNum::modSub(BigNum::modAdd(a, b, m), b, m), a);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigNumAlgebra,
                         ::testing::Values(1, 2, 3, 4));

TEST(RsaProperties, MultiplicativeHomomorphism)
{
    // Raw RSA is multiplicative: E(m1) * E(m2) == E(m1 * m2 mod n).
    const auto &kp = test::testKey512();
    Xoshiro256 rng(9);
    for (int i = 0; i < 10; ++i) {
        BigNum m1 = randomBig(rng, 30).mod(kp.pub.n);
        BigNum m2 = randomBig(rng, 30).mod(kp.pub.n);
        BigNum lhs = BigNum::modMul(crypto::rsaPublicRaw(kp.pub, m1),
                                    crypto::rsaPublicRaw(kp.pub, m2),
                                    kp.pub.n);
        BigNum rhs = crypto::rsaPublicRaw(
            kp.pub, BigNum::modMul(m1, m2, kp.pub.n));
        EXPECT_EQ(lhs, rhs);
    }
}

TEST(RsaProperties, SignThenRecoverIsIdentity)
{
    const auto &kp = test::testKey512();
    Xoshiro256 rng(10);
    for (int i = 0; i < 5; ++i) {
        BigNum m = randomBig(rng, 40).mod(kp.pub.n);
        EXPECT_EQ(crypto::rsaPublicRaw(kp.pub, kp.priv->privateRaw(m)),
                  m);
    }
}

TEST(CbcProperties, BitFlipGarblesExactlyTwoBlocks)
{
    // CBC decryption: flipping ciphertext block i garbles plaintext
    // block i completely and block i+1 in exactly the flipped bit;
    // all other blocks survive. This is the error-propagation
    // structure the record layer's MAC has to compensate for.
    Xoshiro256 rng(11);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    Bytes pt = rng.bytes(16 * 8);

    auto enc = crypto::scalarProvider().createCipher(crypto::CipherAlg::Aes128Cbc, key,
                                      iv, true);
    Bytes ct = enc->process(pt);

    for (size_t block : {0u, 3u, 6u}) {
        Bytes tampered = ct;
        size_t bit = rng.nextBelow(128);
        tampered[block * 16 + bit / 8] ^=
            static_cast<uint8_t>(1u << (bit % 8));

        auto dec = crypto::scalarProvider().createCipher(crypto::CipherAlg::Aes128Cbc,
                                          key, iv, false);
        Bytes out = dec->process(tampered);

        for (size_t b = 0; b < 8; ++b) {
            Bytes got(out.begin() + b * 16, out.begin() + (b + 1) * 16);
            Bytes want(pt.begin() + b * 16, pt.begin() + (b + 1) * 16);
            if (b == block) {
                EXPECT_NE(got, want) << "block " << b;
            } else if (b == block + 1) {
                // Exactly the flipped bit differs.
                int diff_bits = 0;
                for (size_t k = 0; k < 16; ++k)
                    diff_bits += __builtin_popcount(got[k] ^ want[k]);
                EXPECT_EQ(diff_bits, 1) << "block " << b;
            } else {
                EXPECT_EQ(got, want) << "block " << b;
            }
        }
    }
}

TEST(CbcProperties, FirstBlockDependsOnIv)
{
    Xoshiro256 rng(12);
    Bytes key = rng.bytes(16);
    Bytes pt = rng.bytes(32);
    Bytes iv1 = rng.bytes(16);
    Bytes iv2 = iv1;
    iv2[0] ^= 1;

    auto e1 = crypto::scalarProvider().createCipher(crypto::CipherAlg::Aes128Cbc, key,
                                     iv1, true);
    auto e2 = crypto::scalarProvider().createCipher(crypto::CipherAlg::Aes128Cbc, key,
                                     iv2, true);
    Bytes c1 = e1->process(pt);
    Bytes c2 = e2->process(pt);
    EXPECT_NE(Bytes(c1.begin(), c1.begin() + 16),
              Bytes(c2.begin(), c2.begin() + 16));
}

TEST(RecordProperties, RandomizedRoundTrips)
{
    // Random suites, sizes and content types through an armed record
    // channel: everything must round-trip in order.
    Xoshiro256 rng(13);
    const ssl::CipherSuiteId suites[] = {
        ssl::CipherSuiteId::RSA_RC4_128_SHA,
        ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA,
        ssl::CipherSuiteId::RSA_AES_256_CBC_SHA,
    };
    for (ssl::CipherSuiteId id : suites) {
        const auto &suite = ssl::cipherSuite(id);
        ssl::BioPair wires;
        ssl::RecordLayer sender(wires.clientEnd());
        ssl::RecordLayer receiver(wires.serverEnd());
        Bytes mac = rng.bytes(suite.macLen());
        Bytes key = rng.bytes(suite.keyLen());
        Bytes iv = rng.bytes(suite.ivLen());
        sender.enableSendCipher(suite, mac, key, iv);
        receiver.enableRecvCipher(suite, mac, key, iv);

        std::vector<Bytes> sent;
        for (int i = 0; i < 40; ++i) {
            Bytes payload = rng.bytes(rng.nextBelow(2000));
            sender.send(ssl::ContentType::ApplicationData, payload);
            sent.push_back(std::move(payload));
        }
        for (const Bytes &expect : sent) {
            auto rec = receiver.receive();
            ASSERT_TRUE(rec);
            EXPECT_EQ(rec->payload, expect);
        }
        EXPECT_FALSE(receiver.receive());
    }
}

TEST(DesProperties, DecryptScheduleIsReversedEncrypt)
{
    Xoshiro256 rng(14);
    Bytes key = rng.bytes(8);
    crypto::DesKeySchedule enc, dec;
    crypto::desSetKey(key.data(), enc, false);
    crypto::desSetKey(key.data(), dec, true);
    // Each round key is two words (even and odd S-box groups); both
    // must appear in reverse round order.
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(enc.ks[i][0], dec.ks[15 - i][0]) << "round " << i;
        EXPECT_EQ(enc.ks[i][1], dec.ks[15 - i][1]) << "round " << i;
    }
}

TEST(HashProperties, AvalancheOnRandomInputs)
{
    Xoshiro256 rng(15);
    for (int i = 0; i < 20; ++i) {
        Bytes data = rng.bytes(64 + rng.nextBelow(64));
        Bytes flipped = data;
        flipped[rng.nextBelow(flipped.size())] ^= 0x01;

        for (auto alg :
             {crypto::DigestAlg::MD5, crypto::DigestAlg::SHA1}) {
            Bytes h1 = crypto::digestOneShot(alg, data);
            Bytes h2 = crypto::digestOneShot(alg, flipped);
            int diff = 0;
            for (size_t k = 0; k < h1.size(); ++k)
                diff += __builtin_popcount(h1[k] ^ h2[k]);
            // Expect roughly half the output bits to flip.
            EXPECT_GT(diff, static_cast<int>(h1.size() * 8 / 4));
            EXPECT_LT(diff, static_cast<int>(h1.size() * 8 * 3 / 4));
        }
    }
}

} // anonymous namespace
