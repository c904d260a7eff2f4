/**
 * @file
 * The SHA-1 block transform as a Meter-policy template (FIPS 180-2).
 *
 * SHA-1 runs 80 steps per 64-byte block against MD5's 64 and expands
 * the message schedule with rotates, which is why the paper measures it
 * as the more compute-intensive of the two hashes (Table 10/11).
 *
 * The transform is in OpenSSL's form: 80 steps unrolled at compile
 * time, each fixed to its round function and constant, over a rolling
 * 16-word schedule (step i >= 16 overwrites w[i & 15]). The five
 * working variables rotate by name rather than by value: step i
 * updates e in place and rotates b, and step i + 1 sees the same five
 * registers renamed (e, a, b, c, d). No step branches on its round.
 */

#ifndef SSLA_CRYPTO_SHA1_KERNEL_HH
#define SSLA_CRYPTO_SHA1_KERNEL_HH

#include <cstdint>
#include <utility>

#include "perf/opcount.hh"
#include "util/endian.hh"

namespace ssla::crypto
{

/** SHA-1 chaining state. */
struct Sha1State
{
    uint32_t h[5];
};

namespace sha1detail
{

/**
 * Step @p I over the working variables @p v: v[(k - I) mod 5] plays
 * the role of the k-th of a..e. The metered counts are those of the
 * step's round group, fixed at compile time.
 */
template <int I, class Meter>
[[gnu::always_inline]] inline void
step(uint32_t (&v)[5], uint32_t (&w)[16], const uint8_t *block, Meter &m)
{
    using perf::OpClass;
    const uint32_t &a = v[(5 - I % 5) % 5];
    uint32_t &b = v[(6 - I % 5) % 5];
    const uint32_t &c = v[(7 - I % 5) % 5];
    const uint32_t &d = v[(8 - I % 5) % 5];
    uint32_t &e = v[(9 - I % 5) % 5];

    uint32_t x;
    if constexpr (I < 16) {
        x = w[I] = load32be(block + 4 * I);
    } else {
        x = w[I & 15] = rotl32(w[(I + 13) & 15] ^ w[(I + 8) & 15] ^
                                   w[(I + 2) & 15] ^ w[I & 15],
                               1);
        if constexpr (Meter::counting) {
            // 4 schedule loads + store, 3 xors, 1 rotate.
            m.count(OpClass::MovL, 5);
            m.count(OpClass::XorL, 3);
            m.count(OpClass::RolL, 1);
        }
    }

    if constexpr (I < 20) {
        e += rotl32(a, 5) + (d ^ (b & (c ^ d))) + 0x5a827999u + x; // Ch
    } else if constexpr (I < 40) {
        e += rotl32(a, 5) + (b ^ c ^ d) + 0x6ed9eba1u + x; // Parity
    } else if constexpr (I < 60) {
        e += rotl32(a, 5) + ((b & c) | (d & (b | c))) + 0x8f1bbcdcu +
             x; // Maj
    } else {
        e += rotl32(a, 5) + (b ^ c ^ d) + 0xca62c1d6u + x; // Parity
    }
    b = rotl32(b, 30);

    if constexpr (Meter::counting) {
        constexpr bool maj = I >= 40 && I < 60;
        m.count(OpClass::XorL, maj ? 0 : 2);
        m.count(OpClass::AndL, I < 20 ? 1 : maj ? 2 : 0);
        m.count(OpClass::OrL, maj ? 2 : 0);
        m.count(OpClass::RolL, 1);
        m.count(OpClass::RorL, 1); // rotl(b,30) emitted as rorl $2
        m.count(OpClass::MovL, 3); // w[i] load + register traffic
        m.count(OpClass::AddL, 3);
        m.count(OpClass::LeaL, 1); // fold of +k
    }
}

template <class Meter, int... I>
[[gnu::always_inline]] inline void
steps(uint32_t (&v)[5], uint32_t (&w)[16], const uint8_t *block, Meter &m,
      std::integer_sequence<int, I...>)
{
    (step<I>(v, w, block, m), ...);
}

} // namespace sha1detail

/** Apply the SHA-1 compression function to one 64-byte block. */
template <class Meter>
void
sha1BlockT(Sha1State &s, const uint8_t block[64], Meter &m)
{
    using perf::OpClass;

    uint32_t w[16];
    uint32_t v[5] = {s.h[0], s.h[1], s.h[2], s.h[3], s.h[4]};
    if constexpr (Meter::counting) {
        // 16 big-endian loads: load + bswap + store each.
        m.count(OpClass::MovL, 32);
        m.count(OpClass::Bswap, 16);
    }
    // 80 is a multiple of 5, so the names are back where they began.
    sha1detail::steps(v, w, block, m, std::make_integer_sequence<int, 80>{});

    for (int i = 0; i < 5; ++i)
        s.h[i] += v[i];
    if constexpr (Meter::counting) {
        m.count(OpClass::MovL, 10);
        m.count(OpClass::AddL, 5);
        m.count(OpClass::Push, 4);
        m.count(OpClass::Pop, 4);
        m.count(OpClass::Ret, 1);
    }
}

} // namespace ssla::crypto

#endif // SSLA_CRYPTO_SHA1_KERNEL_HH
