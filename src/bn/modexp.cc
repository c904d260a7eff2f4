#include "bn/modexp.hh"

#include <array>
#include <stdexcept>

#include "bn/engine.hh"
#include "perf/probe.hh"

namespace ssla::bn
{

namespace
{

/** Plain square-and-multiply with division-based reduction (even m). */
BigNum
modExpPlain(const BigNum &base, const BigNum &exp, const BigNum &m)
{
    BigNum result = 1;
    BigNum b = base.mod(m);
    size_t nbits = exp.bitLength();
    for (size_t i = nbits; i-- > 0;) {
        result = result.sqr().mod(m);
        if (exp.testBit(i))
            result = (result * b).mod(m);
    }
    return result;
}

/**
 * The same 4-bit fixed-window loop over the 64-bit core's Raw64
 * buffers. Kept shape-identical to the 32-bit loop below so the A/B
 * profile compares window logic on equal footing — only the limb
 * width, the Karatsuba product and the reduction differ.
 */
BigNum
modExpMont64(const BigNum &base, const BigNum &exp, const MontgomeryCtx &ctx,
             const Mont64Core &core)
{
    constexpr unsigned window = 4;
    constexpr size_t table_size = size_t(1) << window;

    using Raw64 = Mont64Core::Raw64;
    BigNum b = base.mod(ctx.modulus());

    // Precompute b^0..b^15 in the Montgomery domain, on raw buffers.
    std::array<Raw64, table_size> table;
    table[0] = core.oneRaw();
    {
        Raw64 rb = core.toRaw(b);
        core.mulRaw(table[1], rb, core.rrRaw()); // toMont(b)
    }
    for (size_t i = 2; i < table_size; ++i)
        core.mulRaw(table[i], table[i - 1], table[1]);

    size_t nbits = exp.bitLength();
    size_t nwindows = (nbits + window - 1) / window;

    // Double-buffered accumulator: sqr/mul cannot write in place.
    Raw64 acc = table[0];
    Raw64 tmp(acc.size());
    for (size_t w = nwindows; w-- > 0;) {
        for (unsigned s = 0; s < window; ++s) {
            core.sqrRaw(tmp, acc);
            std::swap(acc, tmp);
        }
        unsigned idx = 0;
        for (unsigned s = 0; s < window; ++s) {
            size_t bit = w * window + (window - 1 - s);
            idx = (idx << 1) | (bit < nbits && exp.testBit(bit) ? 1 : 0);
        }
        if (idx) {
            core.mulRaw(tmp, acc, table[idx]);
            std::swap(acc, tmp);
        }
    }
    core.fromMontRaw(tmp, acc);
    return core.fromRaw(tmp);
}

} // anonymous namespace

BigNum
modExpMont(const BigNum &base, const BigNum &exp, const MontgomeryCtx &ctx)
{
    perf::FuncProbe probe("BN_mod_exp_mont", perf::ProbeLevel::Fine);

    if (exp.isNegative())
        throw std::domain_error("modExp: negative exponent");
    if (exp.isZero())
        return BigNum(1).mod(ctx.modulus());

    if (const Mont64Core *core = ctx.core64())
        return modExpMont64(base, exp, ctx, *core);

    constexpr unsigned window = 4;
    constexpr size_t table_size = size_t(1) << window;

    using Raw = MontgomeryCtx::Raw;
    BigNum b = base.mod(ctx.modulus());

    // Precompute b^0..b^15 in the Montgomery domain, on raw buffers.
    std::array<Raw, table_size> table;
    table[0] = ctx.toRaw(ctx.one());
    table[1] = ctx.toRaw(ctx.toMont(b));
    for (size_t i = 2; i < table_size; ++i)
        ctx.mulRaw(table[i], table[i - 1], table[1]);

    size_t nbits = exp.bitLength();
    size_t nwindows = (nbits + window - 1) / window;

    // Double-buffered accumulator: sqr/mul cannot write in place.
    Raw acc = table[0];
    Raw tmp(acc.size());
    for (size_t w = nwindows; w-- > 0;) {
        for (unsigned s = 0; s < window; ++s) {
            ctx.sqrRaw(tmp, acc);
            std::swap(acc, tmp);
        }
        unsigned idx = 0;
        for (unsigned s = 0; s < window; ++s) {
            size_t bit = w * window + (window - 1 - s);
            idx = (idx << 1) | (bit < nbits && exp.testBit(bit) ? 1 : 0);
        }
        if (idx) {
            ctx.mulRaw(tmp, acc, table[idx]);
            std::swap(acc, tmp);
        }
    }
    return ctx.fromMont(ctx.fromRaw(acc));
}

BigNum
Engine::modExp(const BigNum &base, const BigNum &exp, const BigNum &m) const
{
    if (m.isZero() || m.isNegative())
        throw std::domain_error("modExp: modulus must be positive");
    if (m.isOne())
        return BigNum();
    if (!m.isOdd())
        return modExpPlain(base, exp, m);
    MontgomeryCtx ctx(m, *this);
    return modExpMont(base, exp, ctx);
}

} // namespace ssla::bn
