#include "bn/montgomery.hh"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "bn/engine.hh"
#include "perf/probe.hh"

namespace ssla::bn
{

#ifndef NDEBUG
/**
 * RAII assertion that the ctx's scratch is entered by one thread at a
 * time (see the header's THREAD OWNERSHIP note). Debug builds only;
 * Release pays nothing.
 */
class ScratchGuard
{
  public:
    explicit ScratchGuard(const MontgomeryCtx &ctx) : ctx_(ctx)
    {
        [[maybe_unused]] unsigned prev =
            ctx_.scratchBusy_.fetch_add(1, std::memory_order_acq_rel);
        assert(prev == 0 &&
               "MontgomeryCtx scratch entered concurrently; contexts "
               "are single-owner — clone the key/ctx per thread");
    }
    ~ScratchGuard()
    {
        ctx_.scratchBusy_.fetch_sub(1, std::memory_order_acq_rel);
    }

  private:
    const MontgomeryCtx &ctx_;
};
#define SSLA_SCRATCH_GUARD(ctx) ScratchGuard scratch_guard(ctx)

/** Same single-owner assertion for the 64-bit core's scratch. */
class Scratch64Guard
{
  public:
    explicit Scratch64Guard(const Mont64Core &core) : core_(core)
    {
        [[maybe_unused]] unsigned prev =
            core_.scratchBusy_.fetch_add(1, std::memory_order_acq_rel);
        assert(prev == 0 &&
               "Mont64Core scratch entered concurrently; contexts "
               "are single-owner — clone the key/ctx per thread");
    }
    ~Scratch64Guard()
    {
        core_.scratchBusy_.fetch_sub(1, std::memory_order_acq_rel);
    }

  private:
    const Mont64Core &core_;
};
#define SSLA_SCRATCH64_GUARD(core) Scratch64Guard scratch64_guard(core)
#else
#define SSLA_SCRATCH_GUARD(ctx) ((void)0)
#define SSLA_SCRATCH64_GUARD(core) ((void)0)
#endif

namespace
{

/** Inverse of an odd 32-bit value modulo 2^32, by Newton iteration. */
Limb
inverseMod32(Limb x)
{
    // Each iteration doubles the number of correct low bits; five
    // iterations take the initial 3 correct bits past 32.
    Limb y = x; // correct mod 2^3 for odd x
    for (int i = 0; i < 5; ++i)
        y = y * (2 - x * y);
    return y;
}

/** Inverse of an odd 64-bit value modulo 2^64, same Newton scheme. */
Limb64
inverseMod64(Limb64 x)
{
    // 3 correct bits doubled five times reaches 96 >= 64.
    Limb64 y = x;
    for (int i = 0; i < 5; ++i)
        y = y * (2 - x * y);
    return y;
}

/** Three-way compare of equal-width little-endian 64-bit limb vectors. */
int
cmpRaw64(const Mont64Core::Raw64 &a, const Mont64Core::Raw64 &b)
{
    for (size_t i = a.size(); i-- > 0;) {
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    }
    return 0;
}

} // anonymous namespace

// ---------------------------------------------------------------- bn64

Mont64Core::Mont64Core(const BigNum &modulus)
{
    n64_ = limbs64From32(modulus.limbs());
    n0_ = 0 - inverseMod64(n64_[0]);

    size_t nbits = limbCount() * limb64Bits;
    BigNum r = BigNum(1).shiftLeft(nbits);
    one64_ = toRaw(r.mod(modulus));
    rr64_ = toRaw(r.sqr().mod(modulus));
    t_.resize(2 * limbCount() + 1);
}

Mont64Core::Raw64
Mont64Core::toRaw(const BigNum &a) const
{
    if (a.isNegative())
        throw std::domain_error("Mont64Core: value out of range");
    Raw64 out = limbs64From32(a.limbs());
    if (out.size() > limbCount())
        throw std::domain_error("Mont64Core: value out of range");
    out.resize(limbCount(), 0);
    if (cmpRaw64(out, n64_) >= 0)
        throw std::domain_error("Mont64Core: value out of range");
    return out;
}

BigNum
Mont64Core::fromRaw(const Raw64 &a) const
{
    return BigNum::fromLimbs(limbs32From64(a));
}

void
Mont64Core::reduceScratch(Raw64 &out) const
{
    perf::FuncProbe probe("BN64_from_montgomery", perf::ProbeLevel::Fine);
    size_t n = limbCount();
    const Limb64 *mod = n64_.data();
    Limb64 *t = t_.data();

    for (size_t i = 0; i < n; ++i) {
        Limb64 m = t[i] * n0_;
        Limb64 carry = bn64_mul_add_words(t + i, mod, n, m);
        // Propagate the word carry through the upper limbs.
        size_t k = i + n;
        while (carry) {
            DLimb64 s = static_cast<DLimb64>(t[k]) + carry;
            t[k] = static_cast<Limb64>(s);
            carry = static_cast<Limb64>(s >> limb64Bits);
            ++k;
        }
    }

    // Result is t >> (n words); subtract N once if needed.
    Limb64 *u = t + n;
    bool ge = u[n] != 0;
    if (!ge) {
        ge = true;
        for (size_t i = n; i-- > 0;) {
            if (u[i] != mod[i]) {
                ge = u[i] > mod[i];
                break;
            }
        }
    }
    out.resize(n);
    if (ge) {
        Limb64 borrow = bn64_sub_words(out.data(), u, mod, n);
        (void)borrow; // u - N < R by construction
    } else {
        std::memcpy(out.data(), u, n * sizeof(Limb64));
    }
}

void
Mont64Core::mulRaw(Raw64 &out, const Raw64 &a, const Raw64 &b) const
{
    SSLA_SCRATCH64_GUARD(*this);
    size_t n = limbCount();
    bn64Mul(t_.data(), a.data(), b.data(), n);
    t_[2 * n] = 0;
    reduceScratch(out);
}

void
Mont64Core::sqrRaw(Raw64 &out, const Raw64 &a) const
{
    perf::FuncProbe probe("BN64_sqr", perf::ProbeLevel::Fine);
    SSLA_SCRATCH64_GUARD(*this);
    size_t n = limbCount();
    bn64Sqr(t_.data(), a.data(), n);
    t_[2 * n] = 0;
    reduceScratch(out);
}

void
Mont64Core::fromMontRaw(Raw64 &out, const Raw64 &a) const
{
    SSLA_SCRATCH64_GUARD(*this);
    std::fill(t_.begin(), t_.end(), 0);
    std::copy(a.begin(), a.end(), t_.begin());
    reduceScratch(out);
}

// ---------------------------------------------------------------- ctx

MontgomeryCtx::MontgomeryCtx(const BigNum &modulus, const Engine &engine)
    : n_(modulus), engine_(&engine)
{
    if (!n_.isOdd() || n_ <= BigNum(1))
        throw std::domain_error("MontgomeryCtx: modulus must be odd > 1");

    if (engine_->backend() == BnBackend::Bn64) {
        core64_ = std::make_unique<Mont64Core>(n_);
        rModN_ = core64_->fromRaw(core64_->oneRaw());
        return;
    }

    n0_ = static_cast<Limb>(0u - inverseMod32(n_.loWord()));

    size_t nbits = limbCount() * limbBits;
    BigNum r = BigNum(1).shiftLeft(nbits);
    rModN_ = r.mod(n_);
    rr_ = r.sqr().mod(n_);
    t_.resize(2 * limbCount() + 1);
}

void
MontgomeryCtx::requireBn32() const
{
    if (core64_)
        throw std::logic_error(
            "MontgomeryCtx: 32-bit Raw interface used on a bn64-bound "
            "context; dispatch on core64() instead");
}

MontgomeryCtx::Raw
MontgomeryCtx::toRaw(const BigNum &a) const
{
    requireBn32();
    if (a.isNegative() || a.cmpAbs(n_) >= 0)
        throw std::domain_error("MontgomeryCtx: value out of range");
    Raw out(limbCount(), 0);
    const auto &limbs = a.limbs();
    std::copy(limbs.begin(), limbs.end(), out.begin());
    return out;
}

BigNum
MontgomeryCtx::fromRaw(const Raw &a) const
{
    requireBn32();
    return BigNum::fromLimbs(Raw(a));
}

void
MontgomeryCtx::reduceScratch(Raw &out) const
{
    perf::FuncProbe probe("BN_from_montgomery", perf::ProbeLevel::Fine);
    size_t n = limbCount();
    const Limb *mod = n_.limbs().data();
    Limb *t = t_.data();

    for (size_t i = 0; i < n; ++i) {
        Limb m = t[i] * n0_;
        Limb carry = bn_mul_add_words(t + i, mod, n, m);
        // Propagate the word carry through the upper limbs.
        size_t k = i + n;
        while (carry) {
            DLimb s = static_cast<DLimb>(t[k]) + carry;
            t[k] = static_cast<Limb>(s);
            carry = static_cast<Limb>(s >> limbBits);
            ++k;
        }
    }

    // Result is t >> (n words); subtract N once if needed.
    Limb *u = t + n;
    bool ge = u[n] != 0;
    if (!ge) {
        ge = true;
        for (size_t i = n; i-- > 0;) {
            if (u[i] != mod[i]) {
                ge = u[i] > mod[i];
                break;
            }
        }
    }
    out.resize(n);
    if (ge) {
        Limb borrow = bn_sub_words(out.data(), u, mod, n);
        (void)borrow; // u - N < R by construction
    } else {
        std::memcpy(out.data(), u, n * sizeof(Limb));
    }
}

void
MontgomeryCtx::mulRaw(Raw &out, const Raw &a, const Raw &b) const
{
    requireBn32();
    SSLA_SCRATCH_GUARD(*this);
    size_t n = limbCount();
    std::fill(t_.begin(), t_.end(), 0);
    for (size_t i = 0; i < n; ++i) {
        if (b[i] == 0)
            continue;
        Limb carry =
            bn_mul_add_words(t_.data() + i, a.data(), n, b[i]);
        t_[i + n] += carry; // position i+n has no prior carry-in > word
        if (t_[i + n] < carry) {
            size_t k = i + n + 1;
            while (++t_[k] == 0)
                ++k;
        }
    }
    reduceScratch(out);
}

void
MontgomeryCtx::sqrRaw(Raw &out, const Raw &a) const
{
    perf::FuncProbe probe("BN_sqr", perf::ProbeLevel::Fine);
    mulRaw(out, a, a);
}

BigNum
MontgomeryCtx::mul(const BigNum &a, const BigNum &b) const
{
    if (core64_) {
        Mont64Core::Raw64 ra = core64_->toRaw(a);
        Mont64Core::Raw64 rb = core64_->toRaw(b);
        Mont64Core::Raw64 out;
        core64_->mulRaw(out, ra, rb);
        return core64_->fromRaw(out);
    }
    Raw ra = toRaw(a);
    Raw rb = toRaw(b);
    Raw out;
    mulRaw(out, ra, rb);
    return fromRaw(out);
}

BigNum
MontgomeryCtx::sqr(const BigNum &a) const
{
    if (core64_) {
        Mont64Core::Raw64 ra = core64_->toRaw(a);
        Mont64Core::Raw64 out;
        core64_->sqrRaw(out, ra);
        return core64_->fromRaw(out);
    }
    Raw ra = toRaw(a);
    Raw out;
    sqrRaw(out, ra);
    return fromRaw(out);
}

BigNum
MontgomeryCtx::toMont(const BigNum &a) const
{
    if (core64_) {
        Mont64Core::Raw64 ra = core64_->toRaw(a);
        Mont64Core::Raw64 out;
        core64_->mulRaw(out, ra, core64_->rrRaw());
        return core64_->fromRaw(out);
    }
    return mul(a, rr_);
}

BigNum
MontgomeryCtx::fromMont(const BigNum &a) const
{
    if (core64_) {
        std::vector<Limb64> v = limbs64From32(a.limbs());
        if (a.isNegative() || v.size() > core64_->limbCount())
            throw std::domain_error("MontgomeryCtx: value out of range");
        v.resize(core64_->limbCount(), 0);
        Mont64Core::Raw64 out;
        core64_->fromMontRaw(out, v);
        return core64_->fromRaw(out);
    }
    SSLA_SCRATCH_GUARD(*this);
    std::fill(t_.begin(), t_.end(), 0);
    const auto &limbs = a.limbs();
    if (a.isNegative() || limbs.size() > limbCount())
        throw std::domain_error("MontgomeryCtx: value out of range");
    std::copy(limbs.begin(), limbs.end(), t_.begin());
    Raw out;
    reduceScratch(out);
    return fromRaw(out);
}

} // namespace ssla::bn
