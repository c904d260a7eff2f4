/**
 * @file
 * The MD5 block transform as a Meter-policy template (RFC 1321).
 *
 * Each of the 64 steps computes a = b + rotl(a + F(b,c,d) + x[k] + T,
 * s); the metered instantiation counts the x86-32 ops of a 2005-era
 * compilation of exactly that expression, feeding the instruction-mix
 * and path-length studies (paper Tables 11/12).
 *
 * The transform is in OpenSSL's form: 4 x 16 steps unrolled at compile
 * time, each with its round function, message index k, constant T and
 * shift s as immediates. The four working variables rotate by name:
 * step i updates a in place and step i + 1 sees the registers renamed
 * (d, a, b, c).
 */

#ifndef SSLA_CRYPTO_MD5_KERNEL_HH
#define SSLA_CRYPTO_MD5_KERNEL_HH

#include <cstdint>
#include <utility>

#include "perf/opcount.hh"
#include "util/endian.hh"

namespace ssla::crypto
{

/** MD5 chaining state. */
struct Md5State
{
    uint32_t a, b, c, d;
};

namespace md5detail
{

/** T[i] = floor(2^32 * |sin(i+1)|), per RFC 1321. */
constexpr uint32_t sineTable[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
    0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
    0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
    0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
    0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
    0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
    0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
    0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
    0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u,
};

/** Per-round shift amounts, indexed [round][step % 4]. */
constexpr int shifts[4][4] = {
    {7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}};

/** Message word step @p i reads. */
constexpr int
messageIndex(int i)
{
    switch (i / 16) {
      case 0:
        return i;
      case 1:
        return (1 + 5 * i) % 16;
      case 2:
        return (5 + 3 * i) % 16;
      default:
        return (7 * i) % 16;
    }
}

/**
 * Step @p I over the working variables @p v: v[(k - I) mod 4] plays
 * the role of the k-th of a..d. The round functions are written in
 * their 3-logical-op forms (the paper's Figure 4 discusses these as
 * candidates for 3-input ISA support); the metered counts are fixed at
 * compile time by the round: H has 2 logicals, F/G/I have 3.
 */
template <int I, class Meter>
[[gnu::always_inline]] inline void
step(uint32_t (&v)[4], const uint32_t (&x)[16], Meter &m)
{
    using perf::OpClass;
    uint32_t &a = v[(4 - I % 4) % 4];
    const uint32_t &b = v[(5 - I % 4) % 4];
    const uint32_t &c = v[(6 - I % 4) % 4];
    const uint32_t &d = v[(7 - I % 4) % 4];

    constexpr int round = I / 16;
    uint32_t f;
    if constexpr (round == 0)
        f = d ^ (b & (c ^ d)); // F == (b & c) | (~b & d)
    else if constexpr (round == 1)
        f = c ^ (d & (b ^ c)); // G == (b & d) | (c & ~d)
    else if constexpr (round == 2)
        f = b ^ c ^ d; // H
    else
        f = c ^ (b | ~d); // I
    a = b + rotl32(a + f + x[messageIndex(I)] + sineTable[I],
                   shifts[round][I % 4]);

    if constexpr (Meter::counting) {
        // movl x[k]; three addl folded as addl+leal pairs; roll; addl b.
        m.count(OpClass::MovL, 2); // load x[k], register shuffle/spill
        m.count(OpClass::LeaL, 1); // a + x[k] + T in one lea
        m.count(OpClass::AddL, 2);
        m.count(OpClass::RolL, 1);
        m.count(OpClass::XorL, 2);
        if constexpr (round != 2)
            m.count(OpClass::AndL, 1);
    }
}

template <class Meter, int... I>
[[gnu::always_inline]] inline void
steps(uint32_t (&v)[4], const uint32_t (&x)[16], Meter &m,
      std::integer_sequence<int, I...>)
{
    (step<I>(v, x, m), ...);
}

} // namespace md5detail

/** Apply the MD5 compression function to one 64-byte block. */
template <class Meter>
void
md5BlockT(Md5State &s, const uint8_t block[64], Meter &m)
{
    using perf::OpClass;

    uint32_t x[16];
    for (int i = 0; i < 16; ++i)
        x[i] = load32le(block + 4 * i);
    if constexpr (Meter::counting) {
        // Message load: 16 loads + 16 stores to the local schedule.
        m.count(OpClass::MovL, 32);
    }

    // 64 is a multiple of 4, so the names are back where they began.
    uint32_t v[4] = {s.a, s.b, s.c, s.d};
    md5detail::steps(v, x, m, std::make_integer_sequence<int, 64>{});

    s.a += v[0];
    s.b += v[1];
    s.c += v[2];
    s.d += v[3];
    if constexpr (Meter::counting) {
        // State fold-in plus loop/call overhead.
        m.count(OpClass::MovL, 8);
        m.count(OpClass::AddL, 4);
        m.count(OpClass::Push, 4);
        m.count(OpClass::Pop, 4);
        m.count(OpClass::Ret, 1);
    }
}

} // namespace ssla::crypto

#endif // SSLA_CRYPTO_MD5_KERNEL_HH
