/**
 * @file
 * The bignum backend seam: one interface, two engines.
 *
 * The 32-bit-limb core (kernels.hh/bignum.cc) is the paper's profiling
 * anchor — its kernel anatomy matches OpenSSL 0.9.7d on the Pentium 4,
 * so Tables 8/9 reproduce on it. The 64-bit engine (kernels64.hh) is
 * the modern counterpart: 128-bit intermediates and Karatsuba above a
 * tuned threshold. bn32Engine()/bn64Engine() are the only way to name
 * one.
 *
 * There is one way to choose a backend: whoever builds the state names
 * it. A MontgomeryCtx and an RsaPrivateKey take their engine as a
 * required constructor argument and keep it for life, and
 * Engine::modExp is the only modexp entry point. Work with no key of
 * its own (DH, the RSA public op, Miller-Rabin) names bn32Engine() at
 * the call site, and so does rsaGenerateKey, so the paper reproduction
 * stays on its profiling anchor.
 */

#ifndef SSLA_BN_ENGINE_HH
#define SSLA_BN_ENGINE_HH

#include "bn/bignum.hh"

namespace ssla::bn
{

/** Which limb core an Engine runs on. */
enum class BnBackend
{
    Bn32, ///< 32-bit limbs, 64-bit intermediates (paper-era core)
    Bn64, ///< 64-bit limbs, __int128 intermediates, Karatsuba
};

/**
 * A bignum arithmetic backend. Stateless and immortal: the two
 * implementations are singletons (bn32Engine()/bn64Engine()), so raw
 * pointers/references to an Engine never dangle.
 */
class Engine
{
  public:
    virtual ~Engine() = default;

    virtual const char *name() const = 0;
    virtual BnBackend backend() const = 0;
    virtual unsigned limbBits() const = 0;

    /** Full signed product a*b on this backend. */
    virtual BigNum mul(const BigNum &a, const BigNum &b) const = 0;

    /** Square a*a on this backend. */
    virtual BigNum sqr(const BigNum &a) const = 0;

    /**
     * base^exp mod m on this backend, the only modexp entry point: for
     * odd m > 1 this builds a MontgomeryCtx bound to this engine; even
     * moduli take the engine-independent square-and-multiply path with
     * division. @p exp must be non-negative.
     */
    BigNum modExp(const BigNum &base, const BigNum &exp,
                  const BigNum &m) const;
};

/** The paper-era 32-bit engine ("bn32"). */
const Engine &bn32Engine();

/** The 64-bit/Karatsuba engine ("bn64"). */
const Engine &bn64Engine();

} // namespace ssla::bn

#endif // SSLA_BN_ENGINE_HH
