/**
 * @file
 * The bignum backend seam: one interface, two engines.
 *
 * The 32-bit-limb core (kernels.hh/bignum.cc) is the paper's profiling
 * anchor — its kernel anatomy matches OpenSSL 0.9.7d on the Pentium 4,
 * so Tables 8/9 reproduce on it. The 64-bit engine (kernels64.hh) is
 * the modern counterpart: 128-bit intermediates and Karatsuba above a
 * tuned threshold. `Engine` makes the choice a runtime property: call
 * sites keep saying modExp/mul/sqr, and the provider (or an
 * EngineScope in a bench/test) decides which arithmetic runs
 * underneath. bn32Engine()/bn64Engine() are the only way to name one.
 *
 * Selection is thread-local and defaults to bn32, so existing code —
 * the whole paper reproduction included — behaves exactly as before
 * unless a caller opts in. The active backend is surfaced as the obs
 * gauge "bn.active_backend_bits" (32 or 64).
 */

#ifndef SSLA_BN_ENGINE_HH
#define SSLA_BN_ENGINE_HH

#include "bn/bignum.hh"

namespace ssla::bn
{

class MontgomeryCtx;

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
     * base^exp mod m on this backend: for odd m > 1 this builds a
     * MontgomeryCtx bound to this engine; even moduli fall back to the
     * engine-independent division path. @p exp must be non-negative.
     */
    BigNum modExp(const BigNum &base, const BigNum &exp,
                  const BigNum &m) const;
};

/** The paper-era 32-bit engine ("bn32"). */
const Engine &bn32Engine();

/** The 64-bit/Karatsuba engine ("bn64"). */
const Engine &bn64Engine();

/**
 * The calling thread's active engine (bn32 unless overridden). The
 * free bn::modExp and default-constructed MontgomeryCtx route through
 * this, which is how DHE and PKI verification pick up a provider's
 * backend without call-site changes.
 */
const Engine &activeEngine();

/**
 * Override the calling thread's active engine (nullptr resets to the
 * bn32 default). Returns the previous override. Updates the
 * "bn.active_backend_bits" gauge. Prefer EngineScope.
 */
const Engine *setActiveEngine(const Engine *engine);

/** RAII active-engine override for the current thread. */
class EngineScope
{
  public:
    explicit EngineScope(const Engine &engine)
        : prev_(setActiveEngine(&engine))
    {
    }
    ~EngineScope() { setActiveEngine(prev_); }

    EngineScope(const EngineScope &) = delete;
    EngineScope &operator=(const EngineScope &) = delete;

  private:
    const Engine *prev_;
};

} // namespace ssla::bn

#endif // SSLA_BN_ENGINE_HH
