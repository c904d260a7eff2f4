/**
 * @file
 * Montgomery multiplication context for odd moduli.
 *
 * RSA's modular exponentiation spends nearly all of its time in the
 * Montgomery product (built on bn_mul_add_words) and the subsequent
 * reduction (OpenSSL's BN_from_montgomery, visible in the paper's
 * Table 8), so the split between the two is kept explicit here.
 *
 * The hot path works on fixed-width raw limb vectors with scratch
 * buffers owned by the context (the BN_CTX idea), so the inner loops
 * allocate nothing; BigNum-typed wrappers cover general use.
 *
 * A context is bound to one bn::Engine at construction. The bn32
 * backend keeps the paper-era 32-bit state; the bn64 backend delegates
 * every scratch-touching operation to an embedded Mont64Core (64-bit
 * limbs, __int128 intermediates, Karatsuba products). The BigNum-typed
 * interface behaves identically on both; the 32-bit Raw interface is
 * only valid on a bn32 context (it throws std::logic_error on bn64 —
 * backend-specific hot loops must dispatch on core64()).
 *
 * THREAD OWNERSHIP: a context is NOT thread-safe — every mul/sqr/
 * fromMont writes the shared scratch t_ (either width). Each thread
 * must own its contexts outright (the serve-layer CryptoPool keeps a
 * full RsaPrivateKey replica, and with it these contexts, per crypto
 * thread). Share moduli, not contexts. Debug builds assert this on
 * BOTH backends: concurrent entry into a scratch-using operation
 * aborts rather than silently corrupting a computation.
 */

#ifndef SSLA_BN_MONTGOMERY_HH
#define SSLA_BN_MONTGOMERY_HH

#ifndef NDEBUG
#include <atomic>
#endif

#include <memory>

#include "bn/bignum.hh"
#include "bn/kernels64.hh"

namespace ssla::bn
{

class Engine;

/**
 * The 64-bit-limb Montgomery core: R = 2^(64*limbCount), kernels from
 * kernels64.hh, products via bn64Mul/bn64Sqr (Karatsuba above the
 * threshold). Owned by a bn64-bound MontgomeryCtx; usable directly by
 * benches/tests that want the raw hot path.
 */
class Mont64Core
{
  public:
    /** Fixed-width (modulus-sized) little-endian 64-bit limb vector. */
    using Raw64 = std::vector<Limb64>;

    /** @p modulus must already be validated odd and > 1. */
    explicit Mont64Core(const BigNum &modulus);

    /** Number of 64-bit limbs in the modulus (the fixed Raw64 width). */
    size_t limbCount() const { return n64_.size(); }

    /** Widen a reduced BigNum to an n-limb Raw64. */
    Raw64 toRaw(const BigNum &a) const;

    /** Collapse a Raw64 back into a BigNum. */
    BigNum fromRaw(const Raw64 &a) const;

    /** out = a*b*R^-1 mod N (out may not alias a or b). */
    void mulRaw(Raw64 &out, const Raw64 &a, const Raw64 &b) const;

    /** out = a^2*R^-1 mod N (out may not alias a). */
    void sqrRaw(Raw64 &out, const Raw64 &a) const;

    /** out = a*R^-1 mod N — leave the Montgomery domain. */
    void fromMontRaw(Raw64 &out, const Raw64 &a) const;

    /** R^2 mod N: toMont(x) = mulRaw(x, rr). */
    const Raw64 &rrRaw() const { return rr64_; }

    /** R mod N: the value 1 in the Montgomery domain. */
    const Raw64 &oneRaw() const { return one64_; }

  private:
    /** Reduce the 2n-limb product in t_ into @p out (t * R^-1 mod N). */
    void reduceScratch(Raw64 &out) const;

    Raw64 n64_;      ///< the modulus, 64-bit limbs
    Limb64 n0_;      ///< -N^-1 mod 2^64
    Raw64 rr64_;     ///< R^2 mod N (for toMont)
    Raw64 one64_;    ///< R mod N (Montgomery representation of 1)
    mutable Raw64 t_; ///< 2n+1-limb product/reduction scratch

#ifndef NDEBUG
    friend class Scratch64Guard;
    /** Debug-only reentrancy flag asserting single-thread ownership. */
    mutable std::atomic<unsigned> scratchBusy_{0};
#endif
};

/** Precomputed per-modulus state for Montgomery arithmetic. */
class MontgomeryCtx
{
  public:
    /** Fixed-width (modulus-sized) little-endian 32-bit limb vector. */
    using Raw = std::vector<Limb>;

    /**
     * Build a context for @p modulus on @p engine, which it keeps for
     * life (the engine is a singleton, so the reference never dangles).
     * @throws std::domain_error unless the modulus is odd and > 1
     */
    MontgomeryCtx(const BigNum &modulus, const Engine &engine);

    const BigNum &modulus() const { return n_; }

    /** The engine this context is bound to. */
    const Engine &engine() const { return *engine_; }

    /** The 64-bit core, or nullptr on a bn32-bound context. */
    const Mont64Core *core64() const { return core64_.get(); }

    /** Number of 32-bit limbs in the modulus (the fixed Raw width). */
    size_t limbCount() const { return n_.size(); }

    // BigNum-typed interface (backend-agnostic).

    /** Map @p a (in [0, N)) into the Montgomery domain: a*R mod N. */
    BigNum toMont(const BigNum &a) const;

    /** Map out of the Montgomery domain: a*R^-1 mod N. */
    BigNum fromMont(const BigNum &a) const;

    /** Montgomery product: a*b*R^-1 mod N for a, b in the domain. */
    BigNum mul(const BigNum &a, const BigNum &b) const;

    /** Montgomery square: a*a*R^-1 mod N. */
    BigNum sqr(const BigNum &a) const;

    /** The value 1 in the Montgomery domain (R mod N). */
    const BigNum &one() const { return rModN_; }

    // Raw fixed-width interface (the allocation-free bn32 hot path).
    // All four throw std::logic_error on a bn64-bound context; use
    // core64() there.

    /** Widen a reduced BigNum to an n-limb Raw. */
    Raw toRaw(const BigNum &a) const;

    /** Collapse a Raw back into a BigNum. */
    BigNum fromRaw(const Raw &a) const;

    /** out = a*b*R^-1 mod N (out may not alias a or b). */
    void mulRaw(Raw &out, const Raw &a, const Raw &b) const;

    /** out = a^2*R^-1 mod N (out may not alias a). */
    void sqrRaw(Raw &out, const Raw &a) const;

  private:
    /**
     * Reduce the double-width product in scratch t_ into @p out:
     * out = t * R^-1 mod N. This is OpenSSL's BN_from_montgomery and
     * is probed as such.
     */
    void reduceScratch(Raw &out) const;

    /** Throw std::logic_error when the 32-bit Raw path is unusable. */
    void requireBn32() const;

    BigNum n_;                ///< the modulus
    const Engine *engine_;    ///< bound backend (singleton, never null)
    Limb n0_ = 0;             ///< -N^-1 mod 2^32 (bn32 only)
    BigNum rr_;               ///< R^2 mod N (bn32 toMont)
    BigNum rModN_;            ///< R mod N for the bound backend's R
    mutable Raw t_;           ///< 2n+1-limb scratch (bn32 only)
    std::unique_ptr<Mont64Core> core64_; ///< set iff bound to bn64

#ifndef NDEBUG
    friend class ScratchGuard;
    /** Debug-only reentrancy flag asserting single-thread ownership. */
    mutable std::atomic<unsigned> scratchBusy_{0};
#endif
};

} // namespace ssla::bn

#endif // SSLA_BN_MONTGOMERY_HH
