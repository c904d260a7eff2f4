/**
 * @file
 * Tests for Montgomery arithmetic, the word kernels and modular
 * exponentiation (checked against a naive square-and-multiply oracle).
 */

#include <gtest/gtest.h>

#include "bn/engine.hh"
#include "bn/kernels.hh"
#include "bn/modexp.hh"
#include "bn/montgomery.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using bn::BigNum;

const bn::Engine &bn32 = bn::bn32Engine();

/** Oracle: naive square-and-multiply with division-based reduction. */
BigNum
naiveModExp(const BigNum &base, const BigNum &exp, const BigNum &m)
{
    BigNum result(1);
    BigNum b = base.mod(m);
    for (size_t i = exp.bitLength(); i-- > 0;) {
        result = (result * result).mod(m);
        if (exp.testBit(i))
            result = (result * b).mod(m);
    }
    return result;
}

TEST(Kernels, MulAddWords)
{
    bn::Limb r[4] = {1, 2, 3, 4};
    bn::Limb a[4] = {0xffffffff, 0xffffffff, 0, 1};
    bn::Limb carry = bn::bn_mul_add_words(r, a, 4, 0xffffffff);
    // Verify against BigNum arithmetic.
    BigNum rv = BigNum::fromLimbs({1, 2, 3, 4});
    BigNum av = BigNum::fromLimbs({0xffffffff, 0xffffffff, 0, 1});
    BigNum expect = rv + av * BigNum(0xffffffffULL);
    BigNum got = BigNum::fromLimbs({r[0], r[1], r[2], r[3], carry});
    EXPECT_EQ(got, expect);
}

TEST(Kernels, MulWords)
{
    bn::Limb r[3];
    bn::Limb a[3] = {0xdeadbeef, 0x12345678, 0xffffffff};
    bn::Limb carry = bn::bn_mul_words(r, a, 3, 0xcafebabe);
    BigNum av = BigNum::fromLimbs({a[0], a[1], a[2]});
    BigNum got = BigNum::fromLimbs({r[0], r[1], r[2], carry});
    EXPECT_EQ(got, av * BigNum(0xcafebabeULL));
}

TEST(Kernels, AddSubWordsInverse)
{
    Xoshiro256 rng(5);
    for (int iter = 0; iter < 50; ++iter) {
        bn::Limb a[8], b[8], sum[8], back[8];
        for (int i = 0; i < 8; ++i) {
            a[i] = static_cast<bn::Limb>(rng.next());
            b[i] = static_cast<bn::Limb>(rng.next());
        }
        bn::Limb carry = bn::bn_add_words(sum, a, b, 8);
        bn::Limb borrow = bn::bn_sub_words(back, sum, b, 8);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(back[i], a[i]);
        EXPECT_EQ(carry, borrow);
    }
}

TEST(Montgomery, RequiresOddModulus)
{
    EXPECT_THROW(bn::MontgomeryCtx(BigNum(10), bn32), std::domain_error);
    EXPECT_THROW(bn::MontgomeryCtx(BigNum(1), bn32), std::domain_error);
    EXPECT_NO_THROW(bn::MontgomeryCtx(BigNum(9), bn32));
}

TEST(Montgomery, ToFromRoundTrip)
{
    BigNum m = BigNum::fromDecimal("1000000000000000003"); // odd
    bn::MontgomeryCtx ctx(m, bn32);
    Xoshiro256 rng(1);
    for (int i = 0; i < 50; ++i) {
        BigNum a = BigNum::fromBytesBE(rng.bytes(8)).mod(m);
        EXPECT_EQ(ctx.fromMont(ctx.toMont(a)), a);
    }
}

TEST(Montgomery, MulMatchesModMul)
{
    BigNum m = BigNum::fromHex("f000000000000000000000000000000d");
    if (!m.isOdd())
        m = m + BigNum(1) + BigNum(1);
    bn::MontgomeryCtx ctx(m, bn32);
    Xoshiro256 rng(2);
    for (int i = 0; i < 50; ++i) {
        BigNum a = BigNum::fromBytesBE(rng.bytes(16)).mod(m);
        BigNum b = BigNum::fromBytesBE(rng.bytes(16)).mod(m);
        BigNum ma = ctx.toMont(a);
        BigNum mb = ctx.toMont(b);
        EXPECT_EQ(ctx.fromMont(ctx.mul(ma, mb)),
                  BigNum::modMul(a, b, m));
        EXPECT_EQ(ctx.fromMont(ctx.sqr(ma)), BigNum::modMul(a, a, m));
    }
}

TEST(Montgomery, OneIsRModN)
{
    BigNum m(101);
    bn::MontgomeryCtx ctx(m, bn32);
    EXPECT_EQ(ctx.fromMont(ctx.one()), BigNum(1));
}

TEST(ModExp, KnownValues)
{
    EXPECT_EQ(bn32.modExp(BigNum(2), BigNum(10), BigNum(1000)),
              BigNum(24));
    EXPECT_EQ(bn32.modExp(BigNum(3), BigNum(0), BigNum(7)), BigNum(1));
    EXPECT_EQ(bn32.modExp(BigNum(0), BigNum(5), BigNum(7)), BigNum(0));
    // Fermat: a^(p-1) = 1 mod p.
    BigNum p = BigNum::fromDecimal("1000000007");
    EXPECT_EQ(bn32.modExp(BigNum(12345), p - BigNum(1), p), BigNum(1));
}

TEST(ModExp, ModulusOneGivesZero)
{
    EXPECT_TRUE(bn32.modExp(BigNum(5), BigNum(5), BigNum(1)).isZero());
}

TEST(ModExp, NegativeExponentThrows)
{
    EXPECT_THROW(
        bn32.modExp(BigNum(2), BigNum::fromInt(-1), BigNum(7)),
        std::domain_error);
}

TEST(ModExp, EvenModulusFallback)
{
    Xoshiro256 rng(3);
    BigNum m = BigNum::fromDecimal("1000000000000"); // even
    for (int i = 0; i < 20; ++i) {
        BigNum b = BigNum::fromBytesBE(rng.bytes(6));
        BigNum e = BigNum::fromBytesBE(rng.bytes(2));
        EXPECT_EQ(bn32.modExp(b, e, m), naiveModExp(b, e, m));
    }
}

/** Property sweep over modulus sizes: windowed Montgomery == naive. */
class ModExpProperty : public ::testing::TestWithParam<size_t>
{};

TEST_P(ModExpProperty, MatchesNaive)
{
    size_t mod_bytes = GetParam();
    Xoshiro256 rng(mod_bytes);
    for (int i = 0; i < 10; ++i) {
        Bytes mb = rng.bytes(mod_bytes);
        mb.back() |= 1; // odd
        mb.front() |= 0x80;
        BigNum m = BigNum::fromBytesBE(mb);
        if (m.isOne())
            continue;
        BigNum b = BigNum::fromBytesBE(rng.bytes(mod_bytes + 2));
        BigNum e = BigNum::fromBytesBE(rng.bytes(3));
        EXPECT_EQ(bn32.modExp(b, e, m), naiveModExp(b, e, m))
            << "modulus bytes " << mod_bytes;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ModExpProperty,
                         ::testing::Values(1, 2, 4, 5, 8, 16, 32, 64));

TEST(ModExp, ReusedContext)
{
    BigNum m = BigNum::fromDecimal("999999999999999989"); // prime, odd
    bn::MontgomeryCtx ctx(m, bn32);
    Xoshiro256 rng(9);
    for (int i = 0; i < 10; ++i) {
        BigNum b = BigNum::fromBytesBE(rng.bytes(8));
        BigNum e = BigNum::fromBytesBE(rng.bytes(4));
        EXPECT_EQ(bn::modExpMont(b, e, ctx), naiveModExp(b, e, m));
    }
}

TEST(ModExp, RsaIdentity)
{
    // (m^e)^d == m for a tiny hand-built RSA instance:
    // p=61, q=53, n=3233, phi=3120, e=17, d=2753.
    BigNum n(3233), e(17), d(2753);
    for (uint64_t m = 1; m < 100; m += 7) {
        BigNum c = bn32.modExp(BigNum(m), e, n);
        EXPECT_EQ(bn32.modExp(c, d, n), BigNum(m));
    }
}

} // anonymous namespace
