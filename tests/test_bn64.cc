/**
 * @file
 * Differential tests for the 64-bit bignum engine: bn32 and bn64 are
 * driven through identical add/sub/mul/sqr/Montgomery/modexp inputs
 * and must agree bit for bit. Sizes deliberately bracket the Karatsuba
 * threshold (n-1, n, n+1 limbs) so a retuned crossover cannot silently
 * break the seam, and sign/zero/aliasing edge cases cover the paths a
 * random sweep is unlikely to hit.
 */

#include <gtest/gtest.h>

#include "bn/engine.hh"
#include "bn/kernels64.hh"
#include "bn/montgomery.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using bn::BigNum;
using bn::Limb64;

/** Random non-negative value of exactly @p bits (top bit pinned). */
BigNum
randomBits(Xoshiro256 &rng, size_t bits)
{
    Bytes b = rng.bytes((bits + 7) / 8);
    b[0] |= 0x80;
    return BigNum::fromBytesBE(b);
}

/** Random odd modulus of exactly @p bits. */
BigNum
randomOddModulus(Xoshiro256 &rng, size_t bits)
{
    Bytes b = rng.bytes((bits + 7) / 8);
    b[0] |= 0x80;
    b[b.size() - 1] |= 0x01;
    return BigNum::fromBytesBE(b);
}

/** Random 64-bit limb vector of length @p n. */
std::vector<Limb64>
randomLimbs64(Xoshiro256 &rng, size_t n)
{
    std::vector<Limb64> v(n);
    for (auto &l : v)
        l = rng.next();
    return v;
}

/** BigNum view of a little-endian 64-bit limb vector. */
BigNum
toBigNum(const std::vector<Limb64> &a)
{
    return BigNum::fromLimbs(bn::limbs32From64(a));
}

// ---------------------------------------------------------------------
// Kernels

TEST(Bn64Kernels, AddSubCarryChainsWithAliasing)
{
    // All-ones words force a carry/borrow through every position; the
    // documented "r may alias a" contract is exercised directly.
    constexpr size_t n = 5;
    std::vector<Limb64> ones(n, ~Limb64{0});
    std::vector<Limb64> one(n, 0);
    one[0] = 1;

    std::vector<Limb64> r = ones;
    EXPECT_EQ(bn::bn64_add_words(r.data(), r.data(), one.data(), n), 1u);
    EXPECT_EQ(r, std::vector<Limb64>(n, 0));

    EXPECT_EQ(bn::bn64_sub_words(r.data(), r.data(), one.data(), n), 1u);
    EXPECT_EQ(r, ones);
}

TEST(Bn64Kernels, MulAddMatchesBigNumReference)
{
    Xoshiro256 rng(64001);
    for (size_t n : {1u, 2u, 7u, 16u}) {
        std::vector<Limb64> a = randomLimbs64(rng, n);
        std::vector<Limb64> r = randomLimbs64(rng, n);
        Limb64 w = rng.next();
        BigNum expect = toBigNum(r) + toBigNum(a) * toBigNum({w});

        std::vector<Limb64> out = r;
        Limb64 carry = bn::bn64_mul_add_words(out.data(), a.data(), n, w);
        out.push_back(carry);
        EXPECT_EQ(toBigNum(out), expect) << "n " << n;

        // mul_words: same product without the accumulator.
        out = std::vector<Limb64>(n, 0);
        carry = bn::bn64_mul_words(out.data(), a.data(), n, w);
        out.push_back(carry);
        EXPECT_EQ(toBigNum(out), toBigNum(a) * toBigNum({w})) << "n " << n;
    }
}

TEST(Bn64Kernels, LimbConversionsRoundTrip)
{
    // Odd 32-limb counts pad the top 64-bit limb; trailing zeros strip.
    Xoshiro256 rng(64002);
    for (size_t n32 : {0u, 1u, 2u, 3u, 7u, 64u, 65u}) {
        std::vector<uint32_t> a(n32);
        for (auto &l : a)
            l = static_cast<uint32_t>(rng.next());
        if (!a.empty() && a.back() == 0)
            a.back() = 1;
        EXPECT_EQ(bn::limbs32From64(bn::limbs64From32(a)), a)
            << "n32 " << n32;
    }
    EXPECT_TRUE(bn::limbs64From32({0, 0, 0}).empty());
    EXPECT_TRUE(bn::limbs32From64({0, 0}).empty());
}

TEST(Bn64Kernels, MulCrossesKaratsubaThreshold)
{
    // n-1 limbs stays schoolbook, n and n+1 recurse; 2n+1 recurses with
    // odd halves. Every size must match the (engine-independent)
    // schoolbook BigNum product.
    Xoshiro256 rng(64003);
    const size_t t = bn::karatsubaThreshold;
    for (size_t n : {size_t{1}, size_t{2}, t - 1, t, t + 1, 2 * t,
                     2 * t + 1}) {
        std::vector<Limb64> a = randomLimbs64(rng, n);
        std::vector<Limb64> b = randomLimbs64(rng, n);
        std::vector<Limb64> r(2 * n);
        bn::bn64Mul(r.data(), a.data(), b.data(), n);
        EXPECT_EQ(toBigNum(r), toBigNum(a) * toBigNum(b)) << "n " << n;

        std::vector<Limb64> s(2 * n);
        bn::bn64Sqr(s.data(), a.data(), n);
        EXPECT_EQ(toBigNum(s), toBigNum(a) * toBigNum(a)) << "n " << n;
    }
}

// ---------------------------------------------------------------------
// Engine-level differential: mul/sqr

TEST(Bn64Engine, MulSqrDifferentialRandomized)
{
    const bn::Engine &e32 = bn::bn32Engine();
    const bn::Engine &e64 = bn::bn64Engine();
    Xoshiro256 rng(64010);
    for (int iter = 0; iter < 200; ++iter) {
        BigNum a = BigNum::fromBytesBE(rng.bytes(1 + rng.nextBelow(260)));
        BigNum b = BigNum::fromBytesBE(rng.bytes(1 + rng.nextBelow(260)));
        if (rng.nextBelow(2))
            a = -a;
        if (rng.nextBelow(2))
            b = -b;
        BigNum ref = a * b;
        EXPECT_EQ(e32.mul(a, b), ref) << "iter " << iter;
        EXPECT_EQ(e64.mul(a, b), ref) << "iter " << iter;
        EXPECT_EQ(e64.sqr(a), a * a) << "iter " << iter;
        EXPECT_EQ(e32.sqr(a), a * a) << "iter " << iter;
    }
}

TEST(Bn64Engine, MulSignAndZeroEdgeCases)
{
    const bn::Engine &e64 = bn::bn64Engine();
    BigNum zero, one(1), big = BigNum::fromHex("ffeeddccbbaa99887766");
    EXPECT_EQ(e64.mul(zero, big), zero);
    EXPECT_EQ(e64.mul(big, zero), zero);
    EXPECT_EQ(e64.mul(-big, one), -big);
    EXPECT_EQ(e64.mul(-big, -big), big * big);
    EXPECT_EQ(e64.mul(big, -one), -big);
    EXPECT_EQ(e64.sqr(-big), big * big);
    EXPECT_EQ(e64.sqr(zero), zero);
}

TEST(Bn64Engine, KaratsubaBoundaryBitWidths)
{
    // Exact operand widths that land on threshold-1/threshold/
    // threshold+1 64-bit limbs (1024 bits = 16 limbs), plus the
    // one-level-recursion widths RSA-2048 exercises.
    const bn::Engine &e32 = bn::bn32Engine();
    const bn::Engine &e64 = bn::bn64Engine();
    Xoshiro256 rng(64011);
    for (size_t bits : {960u, 1024u, 1088u, 1056u, 2048u, 2112u}) {
        BigNum a = randomBits(rng, bits);
        BigNum b = randomBits(rng, bits);
        EXPECT_EQ(e64.mul(a, b), e32.mul(a, b)) << "bits " << bits;
        EXPECT_EQ(e64.sqr(a), e32.sqr(a)) << "bits " << bits;
    }
}

// ---------------------------------------------------------------------
// Montgomery differential

TEST(Bn64Mont, MulSqrToFromMontDifferential)
{
    Xoshiro256 rng(64020);
    // 1056 bits = an odd 32-limb count, where the two backends' R
    // differ (2^1056 vs 2^1088) yet the arithmetic must still agree.
    for (size_t bits : {64u, 512u, 1024u, 1056u}) {
        BigNum m = randomOddModulus(rng, bits);
        bn::MontgomeryCtx ctx32(m, bn::bn32Engine());
        bn::MontgomeryCtx ctx64(m, bn::bn64Engine());
        ASSERT_EQ(&ctx32.engine(), &bn::bn32Engine());
        ASSERT_EQ(&ctx64.engine(), &bn::bn64Engine());
        EXPECT_EQ(ctx32.core64(), nullptr);
        ASSERT_NE(ctx64.core64(), nullptr);

        for (int iter = 0; iter < 8; ++iter) {
            BigNum a = randomBits(rng, bits).mod(m);
            BigNum b = randomBits(rng, bits).mod(m);
            // Montgomery products live in each backend's own domain;
            // comparable numbers only exist outside it.
            BigNum p32 = ctx32.fromMont(ctx32.mul(ctx32.toMont(a),
                                                  ctx32.toMont(b)));
            BigNum p64 = ctx64.fromMont(ctx64.mul(ctx64.toMont(a),
                                                  ctx64.toMont(b)));
            EXPECT_EQ(p32, p64) << "bits " << bits << " iter " << iter;
            EXPECT_EQ(p64, BigNum::modMul(a, b, m));

            BigNum s64 = ctx64.fromMont(ctx64.sqr(ctx64.toMont(a)));
            EXPECT_EQ(s64, BigNum::modMul(a, a, m));
            EXPECT_EQ(ctx64.fromMont(ctx64.toMont(a)), a);
        }
    }
}

TEST(Bn64Mont, Raw32InterfaceRefusedOnBn64Context)
{
    // The 32-bit fixed-width hot path has no meaning on a 64-bit core:
    // misuse must fail loudly, not corrupt.
    BigNum m = BigNum::fromHex("f123456789abcdef1");
    bn::MontgomeryCtx ctx(m, bn::bn64Engine());
    BigNum a(42);
    EXPECT_THROW(ctx.toRaw(a), std::logic_error);
    EXPECT_THROW(ctx.fromRaw(bn::MontgomeryCtx::Raw{}), std::logic_error);
    bn::MontgomeryCtx::Raw out;
    EXPECT_THROW(ctx.mulRaw(out, out, out), std::logic_error);
    EXPECT_THROW(ctx.sqrRaw(out, out), std::logic_error);
}

// ---------------------------------------------------------------------
// Modexp differential

TEST(Bn64ModExp, DifferentialAcrossSizes)
{
    Xoshiro256 rng(64030);
    for (size_t bits : {128u, 512u, 1024u, 1056u}) {
        BigNum m = randomOddModulus(rng, bits);
        for (int iter = 0; iter < 3; ++iter) {
            BigNum base = randomBits(rng, bits).mod(m);
            BigNum exp = randomBits(rng, bits);
            BigNum r32 = bn::bn32Engine().modExp(base, exp, m);
            BigNum r64 = bn::bn64Engine().modExp(base, exp, m);
            EXPECT_EQ(r32, r64) << "bits " << bits << " iter " << iter;
        }
        // Degenerate exponents take the early-out paths.
        BigNum base = randomBits(rng, bits).mod(m);
        EXPECT_EQ(bn::bn64Engine().modExp(base, BigNum(), m), BigNum(1));
        EXPECT_EQ(bn::bn64Engine().modExp(base, BigNum(1), m), base);
        EXPECT_EQ(bn::bn64Engine().modExp(BigNum(), randomBits(rng, 64),
                                          m),
                  BigNum());
    }
}

TEST(Bn64ModExp, EvenModulusFallsBackConsistently)
{
    Xoshiro256 rng(64031);
    BigNum m = randomBits(rng, 256);
    if (m.isOdd())
        m = m + BigNum(1);
    BigNum base = randomBits(rng, 200);
    BigNum exp = randomBits(rng, 64);
    EXPECT_EQ(bn::bn64Engine().modExp(base, exp, m),
              bn::bn32Engine().modExp(base, exp, m));
}

TEST(Bn64ModExp, IdenticalOpSequenceConverges)
{
    // The ISSUE's "identical sequences" clause: a chained computation
    // where each step feeds the next amplifies any single-step
    // divergence into a final-value mismatch.
    auto run = [](const bn::Engine &e) {
        Xoshiro256 rng(64032);
        BigNum m = randomOddModulus(rng, 768);
        BigNum acc(3);
        for (int step = 0; step < 6; ++step) {
            BigNum x = randomBits(rng, 512);
            acc = e.mul(acc, x).mod(m);
            acc = e.sqr(acc).mod(m);
            acc = e.modExp(acc, BigNum(65537), m);
            acc = (acc - x).mod(m);
        }
        return acc;
    };
    EXPECT_EQ(run(bn::bn32Engine()), run(bn::bn64Engine()));
}

// ---------------------------------------------------------------------
// Engine identity

TEST(Bn64Engine, RegistryNamesAndLookup)
{
    EXPECT_EQ(bn::bn32Engine().limbBits(), 32u);
    EXPECT_EQ(bn::bn64Engine().limbBits(), 64u);
    EXPECT_STREQ(bn::bn32Engine().name(), "bn32");
    EXPECT_STREQ(bn::bn64Engine().name(), "bn64");
}

} // anonymous namespace
