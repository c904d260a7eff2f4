/**
 * @file
 * Modular exponentiation — the "computation" step of the paper's
 * Table 7 (97-99% of RSA decryption): 4-bit fixed-window Montgomery
 * exponentiation on a prebuilt context. A one-shot base^exp mod m is
 * Engine::modExp (bn/engine.hh), which builds the context on that
 * engine.
 */

#ifndef SSLA_BN_MODEXP_HH
#define SSLA_BN_MODEXP_HH

#include "bn/bignum.hh"
#include "bn/montgomery.hh"

namespace ssla::bn
{

/**
 * base^exp mod m reusing a prebuilt Montgomery context (RSA keeps one
 * context per modulus across all private-key operations). Runs on
 * whichever engine @p ctx was bound to at construction.
 */
BigNum modExpMont(const BigNum &base, const BigNum &exp,
                  const MontgomeryCtx &ctx);

} // namespace ssla::bn

#endif // SSLA_BN_MODEXP_HH
