/**
 * @file
 * Endian-aware loads/stores and rotate helpers.
 *
 * All crypto kernels are specified in terms of fixed-endian word views of
 * byte streams (MD5 is little-endian, SHA-1/AES/DES big-endian), so these
 * helpers are the lowest layer of every algorithm in src/crypto.
 */

#ifndef SSLA_UTIL_ENDIAN_HH
#define SSLA_UTIL_ENDIAN_HH

#include <cstdint>

namespace ssla
{

/** Load a 32-bit little-endian value from @p p. */
inline uint32_t
load32le(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

/** Load a 32-bit big-endian value from @p p. */
inline uint32_t
load32be(const uint8_t *p)
{
    return (static_cast<uint32_t>(p[0]) << 24) |
           (static_cast<uint32_t>(p[1]) << 16) |
           (static_cast<uint32_t>(p[2]) << 8) |
           static_cast<uint32_t>(p[3]);
}

/** Load a 64-bit big-endian value from @p p. */
inline uint64_t
load64be(const uint8_t *p)
{
    return (static_cast<uint64_t>(load32be(p)) << 32) | load32be(p + 4);
}

/** Store @p v as 32-bit little-endian at @p p. */
inline void
store32le(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

/** Store @p v as 32-bit big-endian at @p p. */
inline void
store32be(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v >> 24);
    p[1] = static_cast<uint8_t>(v >> 16);
    p[2] = static_cast<uint8_t>(v >> 8);
    p[3] = static_cast<uint8_t>(v);
}

/** Store @p v as 64-bit big-endian at @p p. */
inline void
store64be(uint8_t *p, uint64_t v)
{
    store32be(p, static_cast<uint32_t>(v >> 32));
    store32be(p + 4, static_cast<uint32_t>(v));
}

/** Store @p v as 64-bit little-endian at @p p. */
inline void
store64le(uint8_t *p, uint64_t v)
{
    store32le(p, static_cast<uint32_t>(v));
    store32le(p + 4, static_cast<uint32_t>(v >> 32));
}

/** Rotate the 32-bit value @p v left by @p n bits (0 < n < 32). */
constexpr uint32_t
rotl32(uint32_t v, unsigned n)
{
    return (v << n) | (v >> (32 - n));
}

/** Rotate the 32-bit value @p v right by @p n bits (0 < n < 32). */
constexpr uint32_t
rotr32(uint32_t v, unsigned n)
{
    return (v >> n) | (v << (32 - n));
}

/** Rotate the 28-bit value @p v left by @p n bits (DES key schedule). */
constexpr uint32_t
rotl28(uint32_t v, unsigned n)
{
    return ((v << n) | (v >> (28 - n))) & 0x0fffffffu;
}

} // namespace ssla

#endif // SSLA_UTIL_ENDIAN_HH
