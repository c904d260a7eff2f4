#include "bn/engine.hh"

#include <algorithm>

#include "bn/kernels64.hh"

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

} // anonymous namespace

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

} // namespace ssla::bn
