#include "bn/engine.hh"

#include <algorithm>
#include <stdexcept>

#include "bn/kernels64.hh"
#include "bn/modexp.hh"
#include "bn/montgomery.hh"
#include "obs/metrics.hh"

namespace ssla::bn
{

namespace
{

class Bn32Engine final : public Engine
{
  public:
    const char *name() const override { return "bn32"; }
    BnBackend backend() const override { return BnBackend::Bn32; }
    unsigned limbBits() const override { return 32; }

    BigNum
    mul(const BigNum &a, const BigNum &b) const override
    {
        return a * b;
    }

    BigNum
    sqr(const BigNum &a) const override
    {
        return a.sqr();
    }
};

class Bn64Engine final : public Engine
{
  public:
    const char *name() const override { return "bn64"; }
    BnBackend backend() const override { return BnBackend::Bn64; }
    unsigned limbBits() const override { return 64; }

    BigNum
    mul(const BigNum &a, const BigNum &b) const override
    {
        if (a.isZero() || b.isZero())
            return BigNum();
        auto la = limbs64From32(a.limbs());
        auto lb = limbs64From32(b.limbs());
        size_t n = std::max(la.size(), lb.size());
        la.resize(n, 0);
        lb.resize(n, 0);
        std::vector<Limb64> prod(2 * n);
        bn64Mul(prod.data(), la.data(), lb.data(), n);
        return BigNum::fromLimbs(limbs32From64(prod),
                                 a.isNegative() != b.isNegative());
    }

    BigNum
    sqr(const BigNum &a) const override
    {
        if (a.isZero())
            return BigNum();
        auto la = limbs64From32(a.limbs());
        std::vector<Limb64> prod(2 * la.size());
        bn64Sqr(prod.data(), la.data(), la.size());
        return BigNum::fromLimbs(limbs32From64(prod));
    }
};

thread_local const Engine *tl_active = nullptr;

/** Handle resolved once; set() is a relaxed atomic store afterwards. */
obs::Gauge &
backendGauge()
{
    static obs::Gauge g =
        obs::MetricsRegistry::global().gauge("bn.active_backend_bits");
    return g;
}

} // anonymous namespace

BigNum
Engine::modExp(const BigNum &base, const BigNum &exp, const BigNum &m) const
{
    if (m.isZero() || m.isNegative())
        throw std::domain_error("modExp: modulus must be positive");
    if (m.isOne())
        return BigNum();
    if (!m.isOdd())
        return bn::modExp(base, exp, m); // division path, engine-free
    MontgomeryCtx ctx(m, this);
    return modExpMont(base, exp, ctx);
}

const Engine &
bn32Engine()
{
    static const Bn32Engine engine;
    return engine;
}

const Engine &
bn64Engine()
{
    static const Bn64Engine engine;
    return engine;
}

const Engine &
activeEngine()
{
    return tl_active ? *tl_active : bn32Engine();
}

const Engine *
setActiveEngine(const Engine *engine)
{
    const Engine *prev = tl_active;
    tl_active = engine;
    backendGauge().set(static_cast<int64_t>(activeEngine().limbBits()));
    return prev;
}

} // namespace ssla::bn
