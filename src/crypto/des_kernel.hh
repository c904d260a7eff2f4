/**
 * @file
 * DES (FIPS 46-3) block kernels.
 *
 * The paper's Table 6 splits the DES/3DES block operation into initial
 * permutation, 16 substitution rounds and final permutation; the three
 * parts are separate templates here so the anatomy bench can time them
 * the way the paper did. Triple DES shares one IP and one FP around its
 * 48 rounds (the FP of one DES pass and the IP of the next cancel), as
 * OpenSSL's DES_encrypt3 does.
 *
 * IP and FP are OpenSSL's PERM_OP sequence: five delta swaps between
 * the halves. The rounds are OpenSSL's D_ENCRYPT form. Both halves are
 * kept rotated right by one bit, so that the E-expansion needs no bit
 * gathering: in that frame the even S-box groups 0/2/4/6 sit at bit
 * offsets 26/18/10/2 of the half itself, and the odd groups 1/3/5/7 at
 * the same offsets of the half rotated left by 4. The round key is
 * split the same way into two words, and the eight 64-entry SP tables
 * (S-boxes pre-composed with P, Table 4's "8 tables x 64 x 32b") are
 * pre-rotated to match. A round is two key XORs, a rotate and eight
 * extract+lookup+fold steps.
 */

#ifndef SSLA_CRYPTO_DES_KERNEL_HH
#define SSLA_CRYPTO_DES_KERNEL_HH

#include <cstddef>
#include <cstdint>

#include "perf/opcount.hh"
#include "util/endian.hh"

namespace ssla::crypto
{

/**
 * Per-key DES state. ks[i][0] holds round i's key bits for S-box
 * groups 0/2/4/6 at bit offsets 26/18/10/2; ks[i][1] holds groups
 * 1/3/5/7 at the same offsets (see the file comment for the frame).
 */
struct DesKeySchedule
{
    uint32_t ks[16][2];
};

/** DES tables: rotated-frame SP boxes and the key permutations. */
struct DesTables
{
    uint32_t sp[8][64];     ///< S-boxes composed with P, rotated right 1
    uint64_t pc1[8][256];   ///< key permutation PC-1 (64 -> 56 bits)
    uint64_t pc2[7][256];   ///< round-key permutation PC-2 (56 -> 48)
};

/** Access the process-wide DES tables (built at compile time). */
const DesTables &desTables();

/**
 * Expand @p key (8 bytes; parity bits ignored) into 16 round keys.
 * @param decrypt reverse the round-key order for decryption
 */
void desSetKey(const uint8_t key[8], DesKeySchedule &out,
               bool decrypt = false);

namespace desdetail
{

/** PERM_OP: swap the bits of @p a >> @p n selected by @p mask with @p b. */
inline void
permOp(uint32_t &a, uint32_t &b, unsigned n, uint32_t mask)
{
    uint32_t t = ((a >> n) ^ b) & mask;
    b ^= t;
    a ^= t << n;
}

/** IP of @p block into its halves (L high, R low), unrotated. */
inline void
initialPerm(uint64_t block, uint32_t &l, uint32_t &r)
{
    l = static_cast<uint32_t>(block >> 32);
    r = static_cast<uint32_t>(block);
    permOp(l, r, 4, 0x0f0f0f0fu);
    permOp(l, r, 16, 0x0000ffffu);
    permOp(r, l, 2, 0x33333333u);
    permOp(r, l, 8, 0x00ff00ffu);
    permOp(l, r, 1, 0x55555555u);
}

/** FP (IP^-1): the same delta swaps in reverse order. */
inline uint64_t
finalPerm(uint32_t hi, uint32_t lo)
{
    permOp(hi, lo, 1, 0x55555555u);
    permOp(lo, hi, 8, 0x00ff00ffu);
    permOp(lo, hi, 2, 0x33333333u);
    permOp(hi, lo, 16, 0x0000ffffu);
    permOp(hi, lo, 4, 0x0f0f0f0fu);
    return (static_cast<uint64_t>(hi) << 32) | lo;
}

/** f(R, K) for a half @p r in the rotated frame. */
inline uint32_t
feistel(uint32_t r, const uint32_t k[2], const uint32_t (*sp)[64])
{
    uint32_t u = r ^ k[0];
    uint32_t t = rotl32(r, 4) ^ k[1];
    return sp[0][(u >> 26) & 0x3f] ^ sp[2][(u >> 18) & 0x3f] ^
           sp[4][(u >> 10) & 0x3f] ^ sp[6][(u >> 2) & 0x3f] ^
           sp[1][(t >> 26) & 0x3f] ^ sp[3][(t >> 18) & 0x3f] ^
           sp[5][(t >> 10) & 0x3f] ^ sp[7][(t >> 2) & 0x3f];
}

/**
 * 16 rounds over N independent blocks at once, halves in the rotated
 * frame. The rounds alternate which half they fold into, so on return
 * l/r hold L16/R16 (not yet swapped). With N > 1 the blocks' lookup
 * chains interleave and overlap in the pipeline.
 */
template <size_t N>
inline void
rounds(uint32_t (&l)[N], uint32_t (&r)[N], const DesKeySchedule &key,
       const uint32_t (*sp)[64])
{
    for (int i = 0; i < 16; i += 2) {
        for (size_t j = 0; j < N; ++j)
            l[j] ^= feistel(r[j], key.ks[i], sp);
        for (size_t j = 0; j < N; ++j)
            r[j] ^= feistel(l[j], key.ks[i + 1], sp);
    }
}

/** Op counts of one PERM_OP-form IP or FP. */
template <class Meter>
inline void
countPerm(Meter &m)
{
    if constexpr (Meter::counting) {
        using perf::OpClass;
        // OpenSSL's PERM_OP sequence: five swap steps of
        // shift / xor / and / xor / shift / xor, plus load/store traffic.
        m.count(OpClass::ShrL, 5);
        m.count(OpClass::ShlL, 5);
        m.count(OpClass::XorL, 15);
        m.count(OpClass::AndL, 5);
        m.count(OpClass::MovL, 8);
        m.count(OpClass::RorL, 2);
    }
}

} // namespace desdetail

/** Part 1 of Table 6: initial permutation of the 64-bit block. */
template <class Meter>
inline uint64_t
desInitialPerm(uint64_t block, Meter &m)
{
    uint32_t l, r;
    desdetail::initialPerm(block, l, r);
    desdetail::countPerm(m);
    return (static_cast<uint64_t>(l) << 32) | r;
}

/** Part 3 of Table 6: final permutation (IP^-1). */
template <class Meter>
inline uint64_t
desFinalPerm(uint64_t block, Meter &m)
{
    desdetail::countPerm(m);
    return desdetail::finalPerm(static_cast<uint32_t>(block >> 32),
                                static_cast<uint32_t>(block));
}

/**
 * Part 2 of Table 6: the 16 substitution rounds over the permuted
 * block (L in the high half, R in the low half).
 */
template <class Meter>
inline uint64_t
desRounds(uint64_t lr, const DesKeySchedule &key, Meter &m)
{
    uint32_t l[1] = {rotr32(static_cast<uint32_t>(lr >> 32), 1)};
    uint32_t r[1] = {rotr32(static_cast<uint32_t>(lr), 1)};
    desdetail::rounds(l, r, key, desTables().sp);
    if constexpr (Meter::counting) {
        using perf::OpClass;
        for (int round = 0; round < 16; ++round) {
            // OpenSSL's D_ENCRYPT: two key XORs, a rotate, eight
            // extract+lookup+fold sequences, the L^=f fold and the
            // round-loop control — xorl-dominated, as Table 12 shows.
            m.count(OpClass::XorL, 16);
            m.count(OpClass::MovB, 7);
            m.count(OpClass::MovL, 6);
            m.count(OpClass::AndL, 6);
            m.count(OpClass::ShrL, 2);
            m.count(OpClass::RorL, 1);
            m.count(OpClass::RolL, 1);
            m.count(OpClass::Jcc, 1);
        }
    }
    // The halves are swapped once more than the algorithm wants.
    return (static_cast<uint64_t>(rotl32(r[0], 1)) << 32) |
           rotl32(l[0], 1);
}

/** Complete single-block DES: IP, 16 rounds, FP. */
template <class Meter>
inline uint64_t
desProcessBlockT(uint64_t block, const DesKeySchedule &key, Meter &m)
{
    uint64_t lr = desInitialPerm(block, m);
    lr = desRounds(lr, key, m);
    return desFinalPerm(lr, m);
}

} // namespace ssla::crypto

#endif // SSLA_CRYPTO_DES_KERNEL_HH
