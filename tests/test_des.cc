/**
 * @file
 * DES and 3DES tests: classic known-answer vectors, NIST KAT entries,
 * EDE structure checks and roundtrip sweeps.
 */

#include <gtest/gtest.h>

#include "crypto/des.hh"
#include "util/bytes.hh"
#include "util/endian.hh"
#include "util/hex.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using crypto::Des;
using crypto::TripleDes;

TEST(Des, ClassicVector)
{
    // The canonical worked example from the original DES literature.
    Des des(hexDecode("133457799BBCDFF1"));
    Bytes pt = hexDecode("0123456789ABCDEF");
    uint8_t ct[8];
    des.encryptBlock(pt.data(), ct);
    EXPECT_EQ(hexEncode(ct, 8), "85e813540f0ab405");
    uint8_t back[8];
    des.decryptBlock(ct, back);
    EXPECT_EQ(Bytes(back, back + 8), pt);
}

TEST(Des, NistVariablePlaintextKat)
{
    // First entries of the NIST variable-plaintext known-answer test
    // (key 01...01, plaintext = single set bit).
    Des des(hexDecode("0101010101010101"));
    struct Case { const char *pt, *ct; };
    const Case cases[] = {
        {"8000000000000000", "95f8a5e5dd31d900"},
        {"4000000000000000", "dd7f121ca5015619"},
        {"2000000000000000", "2e8653104f3834ea"},
        {"1000000000000000", "4bd388ff6cd81d4f"},
    };
    for (const auto &c : cases) {
        Bytes pt = hexDecode(c.pt);
        uint8_t ct[8];
        des.encryptBlock(pt.data(), ct);
        EXPECT_EQ(hexEncode(ct, 8), c.ct);
    }
}

TEST(Des, ParityBitsIgnored)
{
    // Keys differing only in parity bits must encrypt identically.
    Des a(hexDecode("133457799BBCDFF1"));
    Des b(hexDecode("123456789ABCDEF0"));
    Bytes pt = hexDecode("0011223344556677");
    uint8_t ca[8], cb[8];
    a.encryptBlock(pt.data(), ca);
    b.encryptBlock(pt.data(), cb);
    EXPECT_EQ(hexEncode(ca, 8), hexEncode(cb, 8));
}

TEST(Des, BadKeySizeThrows)
{
    EXPECT_THROW(Des(Bytes(7)), std::invalid_argument);
    EXPECT_THROW(Des(Bytes(9)), std::invalid_argument);
    EXPECT_THROW(TripleDes(Bytes(23)), std::invalid_argument);
    EXPECT_THROW(TripleDes(Bytes(8)), std::invalid_argument);
}

TEST(Des, RoundTripRandom)
{
    Xoshiro256 rng(6);
    for (int i = 0; i < 200; ++i) {
        Des des(rng.bytes(8));
        Bytes pt = rng.bytes(8);
        uint8_t ct[8], back[8];
        des.encryptBlock(pt.data(), ct);
        des.decryptBlock(ct, back);
        EXPECT_EQ(Bytes(back, back + 8), pt);
    }
}

TEST(Des, ComplementationProperty)
{
    // DES's famous complementation property:
    // E_k(p) = c  implies  E_~k(~p) = ~c.
    Xoshiro256 rng(7);
    Bytes key = rng.bytes(8);
    Bytes pt = rng.bytes(8);
    Bytes nkey(8), npt(8);
    for (int i = 0; i < 8; ++i) {
        nkey[i] = static_cast<uint8_t>(~key[i]);
        npt[i] = static_cast<uint8_t>(~pt[i]);
    }
    uint8_t ct[8], nct[8];
    Des(key).encryptBlock(pt.data(), ct);
    Des(nkey).encryptBlock(npt.data(), nct);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(static_cast<uint8_t>(~ct[i]), nct[i]);
}

TEST(TripleDes, DegeneratesToSingleDesWithEqualKeys)
{
    // EDE with k1 == k2 == k3 is plain DES.
    Bytes k = hexDecode("133457799BBCDFF1");
    Bytes k3;
    for (int i = 0; i < 3; ++i)
        append(k3, k);
    TripleDes tdes(k3);
    Des des(k);
    Bytes pt = hexDecode("0123456789ABCDEF");
    uint8_t c1[8], c3[8];
    des.encryptBlock(pt.data(), c1);
    tdes.encryptBlock(pt.data(), c3);
    EXPECT_EQ(hexEncode(c1, 8), hexEncode(c3, 8));
}

TEST(TripleDes, RoundTripRandom)
{
    Xoshiro256 rng(8);
    for (int i = 0; i < 100; ++i) {
        TripleDes tdes(rng.bytes(24));
        Bytes pt = rng.bytes(8);
        uint8_t ct[8], back[8];
        tdes.encryptBlock(pt.data(), ct);
        tdes.decryptBlock(ct, back);
        EXPECT_EQ(Bytes(back, back + 8), pt);
    }
}

TEST(TripleDes, EdeStructure)
{
    // E(k3, D(k2, E(k1, p))): verify by composing single-DES stages.
    Xoshiro256 rng(9);
    Bytes key = rng.bytes(24);
    Bytes k1(key.begin(), key.begin() + 8);
    Bytes k2(key.begin() + 8, key.begin() + 16);
    Bytes k3(key.begin() + 16, key.end());

    Bytes pt = rng.bytes(8);
    uint8_t stage[8];
    Des(k1).encryptBlock(pt.data(), stage);
    uint8_t stage2[8];
    Des(k2).decryptBlock(stage, stage2);
    uint8_t expect[8];
    Des(k3).encryptBlock(stage2, expect);

    uint8_t got[8];
    TripleDes(key).encryptBlock(pt.data(), got);
    EXPECT_EQ(hexEncode(got, 8), hexEncode(expect, 8));
}

TEST(Des, SpTablesContain32BitPPermutedValues)
{
    const auto &t = crypto::desTables();
    // Every SP entry's bits must be confined to the 4 P-permuted
    // positions of its box; cheap sanity: entries for v=0 vary and
    // no table is all-zero.
    for (int box = 0; box < 8; ++box) {
        uint32_t acc = 0;
        for (int v = 0; v < 64; ++v)
            acc |= t.sp[box][v];
        EXPECT_NE(acc, 0u);
        // Exactly 4 output bit positions per box.
        EXPECT_EQ(__builtin_popcount(acc), 4) << "box " << box;
    }
}

TEST(Des, IpFpAreInverses)
{
    Xoshiro256 rng(10);
    perf::NullMeter m;
    for (int i = 0; i < 100; ++i) {
        uint64_t block = rng.next();
        uint64_t ip = crypto::desInitialPerm(block, m);
        EXPECT_EQ(crypto::desFinalPerm(ip, m), block);
    }
}

TEST(Des, IpMatchesFipsTable)
{
    // The PERM_OP delta swaps must realise FIPS 46-3's IP bit for bit
    // (table bit numbers are 1-based from the MSB).
    static const int ipSpec[64] = {
        58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
        62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
        57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
        61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
    };
    Xoshiro256 rng(12);
    perf::NullMeter m;
    for (int i = 0; i < 100; ++i) {
        uint64_t block = rng.next();
        uint64_t expect = 0;
        for (int bit = 0; bit < 64; ++bit)
            if ((block >> (64 - ipSpec[bit])) & 1)
                expect |= uint64_t(1) << (63 - bit);
        EXPECT_EQ(crypto::desInitialPerm(block, m), expect);
    }
}

TEST(TripleDes, TwoBlockDecryptMatchesSingleBlocks)
{
    Xoshiro256 rng(13);
    for (int i = 0; i < 50; ++i) {
        TripleDes tdes(rng.bytes(24));
        Bytes ct = rng.bytes(16);
        uint8_t two[16], one[16];
        tdes.decryptTwoBlocks(ct.data(), two);
        tdes.decryptBlock(ct.data(), one);
        tdes.decryptBlock(ct.data() + 8, one + 8);
        EXPECT_EQ(hexEncode(two, 16), hexEncode(one, 16));
    }
}

TEST(Des, MeteredKernelMatchesPlain)
{
    Xoshiro256 rng(11);
    Bytes key = rng.bytes(8);
    Des des(key);
    Bytes pt = rng.bytes(8);
    uint8_t plain_out[8];
    des.encryptBlock(pt.data(), plain_out);

    perf::CountingMeter meter;
    uint64_t block = load64be(pt.data());
    uint64_t enc = crypto::desProcessBlockT(block, des.encKey(), meter);
    uint8_t metered_out[8];
    store64be(metered_out, enc);
    EXPECT_EQ(Bytes(metered_out, metered_out + 8),
              Bytes(plain_out, plain_out + 8));
    EXPECT_GT(meter.hist.count(perf::OpClass::XorL), 0u);
}

} // anonymous namespace
