/**
 * @file
 * Cipher interface + CBC mode tests across every implemented suite
 * cipher: roundtrips, chaining semantics, error handling.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "crypto/cipher.hh"
#include "crypto/des.hh"
#include "crypto/provider.hh"
#include "openssl_cli.hh"
#include "util/hex.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using crypto::Cipher;
using crypto::CipherAlg;

struct AlgCase
{
    CipherAlg alg;
    const char *name;
};

class CipherRoundTrip : public ::testing::TestWithParam<CipherAlg>
{};

TEST_P(CipherRoundTrip, EncryptDecrypt)
{
    CipherAlg alg = GetParam();
    const auto &info = crypto::cipherInfo(alg);
    Xoshiro256 rng(static_cast<uint64_t>(alg) + 1);

    Bytes key = rng.bytes(info.keyLen);
    Bytes iv = rng.bytes(info.ivLen);

    for (size_t blocks : {1u, 2u, 5u, 64u}) {
        size_t len = info.blockLen * blocks;
        Bytes pt = rng.bytes(len);

        auto enc = crypto::scalarProvider().createCipher(alg, key, iv, true);
        Bytes ct = enc->process(pt);
        auto dec = crypto::scalarProvider().createCipher(alg, key, iv, false);
        Bytes back = dec->process(ct);
        EXPECT_EQ(back, pt) << info.name << " blocks=" << blocks;
        if (alg != CipherAlg::Null) {
            EXPECT_NE(ct, pt);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Algs, CipherRoundTrip,
    ::testing::Values(CipherAlg::Null, CipherAlg::Rc4_128,
                      CipherAlg::DesCbc, CipherAlg::Des3Cbc,
                      CipherAlg::Aes128Cbc, CipherAlg::Aes256Cbc));

TEST(Cipher, InfoTable)
{
    EXPECT_EQ(crypto::cipherInfo(CipherAlg::Des3Cbc).keyLen, 24u);
    EXPECT_EQ(crypto::cipherInfo(CipherAlg::Des3Cbc).blockLen, 8u);
    EXPECT_EQ(crypto::cipherInfo(CipherAlg::Aes256Cbc).keyLen, 32u);
    EXPECT_EQ(crypto::cipherInfo(CipherAlg::Aes256Cbc).ivLen, 16u);
    EXPECT_EQ(crypto::cipherInfo(CipherAlg::Rc4_128).blockLen, 1u);
    EXPECT_STREQ(crypto::cipherInfo(CipherAlg::DesCbc).name, "DES-CBC");
}

TEST(Cipher, BadKeyLengthThrows)
{
    Bytes iv(16);
    EXPECT_THROW(crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, Bytes(15), iv,
                                true),
                 std::invalid_argument);
}

TEST(Cipher, BadIvLengthThrows)
{
    EXPECT_THROW(crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, Bytes(16),
                                Bytes(8), true),
                 std::invalid_argument);
}

TEST(Cipher, CbcPartialBlockThrows)
{
    auto c = crypto::scalarProvider().createCipher(CipherAlg::DesCbc, Bytes(8), Bytes(8), true);
    Bytes data(12); // not a multiple of 8
    EXPECT_THROW(c->process(data), std::invalid_argument);
}

TEST(Cipher, CbcChainingLinksBlocks)
{
    // Identical plaintext blocks must encrypt differently under CBC.
    Xoshiro256 rng(2);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    auto enc = crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, key, iv, true);
    Bytes pt(32, 0x5a); // two identical blocks
    Bytes ct = enc->process(pt);
    EXPECT_NE(Bytes(ct.begin(), ct.begin() + 16),
              Bytes(ct.begin() + 16, ct.end()));
}

TEST(Cipher, CbcIvMatters)
{
    Xoshiro256 rng(3);
    Bytes key = rng.bytes(16);
    Bytes pt = rng.bytes(16);
    auto e1 = crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, key, rng.bytes(16),
                             true);
    auto e2 = crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, key, rng.bytes(16),
                             true);
    EXPECT_NE(e1->process(pt), e2->process(pt));
}

TEST(Cipher, CbcStateCarriesAcrossCalls)
{
    // Encrypting in two calls must equal encrypting at once.
    Xoshiro256 rng(4);
    Bytes key = rng.bytes(24);
    Bytes iv = rng.bytes(8);
    Bytes pt = rng.bytes(48);

    auto whole = crypto::scalarProvider().createCipher(CipherAlg::Des3Cbc, key, iv, true);
    Bytes expect = whole->process(pt);

    auto split = crypto::scalarProvider().createCipher(CipherAlg::Des3Cbc, key, iv, true);
    Bytes got(48);
    split->process(pt.data(), got.data(), 16);
    split->process(pt.data() + 16, got.data() + 16, 32);
    EXPECT_EQ(got, expect);
}

TEST(Cipher, CbcDecryptInPlace)
{
    Xoshiro256 rng(5);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    Bytes pt = rng.bytes(64);

    auto enc = crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, key, iv, true);
    Bytes buf = enc->process(pt);
    auto dec = crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, key, iv, false);
    dec->process(buf.data(), buf.data(), buf.size());
    EXPECT_EQ(buf, pt);
}

TEST(Cipher, CbcEncryptInPlace)
{
    Xoshiro256 rng(6);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    Bytes pt = rng.bytes(64);

    auto ref = crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, key, iv, true);
    Bytes expect = ref->process(pt);

    auto enc = crypto::scalarProvider().createCipher(CipherAlg::Aes128Cbc, key, iv, true);
    Bytes buf = pt;
    enc->process(buf.data(), buf.data(), buf.size());
    EXPECT_EQ(buf, expect);
}

// ---------------------------------------------------------------------
// DES-family CBC: records arrive as successive process() calls, and
// decryption takes two blocks per step with a one-block tail.

/** 3DES-CBC decryption from single-block calls only (the reference). */
Bytes
cbcDecryptReference(const Bytes &key, const Bytes &iv, const Bytes &ct)
{
    crypto::TripleDes block(key);
    Bytes out(ct.size());
    Bytes chain = iv;
    for (size_t off = 0; off < ct.size(); off += 8) {
        uint8_t buf[8];
        block.decryptBlock(ct.data() + off, buf);
        for (size_t i = 0; i < 8; ++i)
            out[off + i] = buf[i] ^ chain[i];
        chain.assign(ct.begin() + off, ct.begin() + off + 8);
    }
    return out;
}

TEST(DesCbc, ChainContinuesAcrossProcessCalls)
{
    // One cipher fed pieces of odd and even block counts must equal
    // one whole call, in both directions: a decrypt piece ending on
    // the single-block tail hands the next call its chain block.
    Xoshiro256 rng(21);
    for (CipherAlg alg : {CipherAlg::DesCbc, CipherAlg::Des3Cbc}) {
        const auto &info = crypto::cipherInfo(alg);
        Bytes key = rng.bytes(info.keyLen);
        Bytes iv = rng.bytes(info.ivLen);
        Bytes pt = rng.bytes(8 * 64);
        for (bool encrypt : {true, false}) {
            Bytes expect = crypto::Cipher::create(alg, key, iv, encrypt)
                               ->process(pt);
            auto c = crypto::Cipher::create(alg, key, iv, encrypt);
            Bytes got(pt.size());
            size_t off = 0;
            for (size_t blocks : {1u, 3u, 2u, 5u, 1u, 1u, 7u, 44u}) {
                c->process(pt.data() + off, got.data() + off, 8 * blocks);
                off += 8 * blocks;
            }
            ASSERT_EQ(off, pt.size());
            EXPECT_EQ(got, expect)
                << info.name << (encrypt ? " encrypt" : " decrypt");
        }
    }
}

TEST(DesCbc, DecryptInPlaceOddBlockCounts)
{
    // Odd counts leave a single-block tail after the two-block steps.
    Xoshiro256 rng(22);
    Bytes key = rng.bytes(24);
    Bytes iv = rng.bytes(8);
    for (size_t blocks : {1u, 2u, 3u, 2047u}) {
        Bytes ct = rng.bytes(8 * blocks);
        Bytes buf = ct;
        crypto::Cipher::create(CipherAlg::Des3Cbc, key, iv, false)
            ->process(buf.data(), buf.data(), buf.size());
        EXPECT_EQ(buf, cbcDecryptReference(key, iv, ct))
            << "blocks=" << blocks;
    }
}

/** Run `openssl enc -des-ede3-cbc -nopad` over @p in; nullopt on failure. */
std::optional<Bytes>
opensslDes3Cbc(const Bytes &key, const Bytes &iv, const Bytes &in,
               bool decrypt)
{
    return test::runOpenssl(std::string("enc -des-ede3-cbc") +
                                (decrypt ? " -d" : "") + " -nopad -K " +
                                hexEncode(key) + " -iv " + hexEncode(iv),
                            in);
}

TEST(DesCbc, MatchesOpensslCli)
{
    // External oracle: our 3DES-CBC must agree with the OpenSSL CLI
    // byte for byte, both directions, including a record split across
    // two process() calls.
    if (!test::haveOpensslCli())
        GTEST_SKIP() << "openssl not on PATH";
    Xoshiro256 rng(23);
    for (size_t blocks : {1u, 2u, 3u, 2047u}) {
        Bytes key = rng.bytes(24);
        Bytes iv = rng.bytes(8);
        Bytes data = rng.bytes(8 * blocks);
        for (bool encrypt : {true, false}) {
            std::optional<Bytes> oracle =
                opensslDes3Cbc(key, iv, data, !encrypt);
            ASSERT_TRUE(oracle) << "openssl enc failed";
            auto c = crypto::Cipher::create(CipherAlg::Des3Cbc, key, iv,
                                            encrypt);
            Bytes got(data.size());
            size_t first = 8 * (blocks / 2);
            c->process(data.data(), got.data(), first);
            c->process(data.data() + first, got.data() + first,
                       data.size() - first);
            EXPECT_EQ(got, *oracle)
                << (encrypt ? "encrypt" : "decrypt") << " blocks="
                << blocks;
        }
    }
}

TEST(Cipher, NullCipherIsIdentity)
{
    auto c = crypto::scalarProvider().createCipher(CipherAlg::Null, Bytes{}, Bytes{}, true);
    Bytes data = {1, 2, 3, 4, 5};
    EXPECT_EQ(c->process(data), data);
}

} // anonymous namespace
