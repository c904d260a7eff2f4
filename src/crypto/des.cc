#include "crypto/des.hh"

#include <stdexcept>

#include "util/endian.hh"

namespace ssla::crypto
{

namespace
{

// FIPS 46-3 tables. Bit numbers are 1-based from the MSB, as in the
// standard. Correctness is pinned by the known-answer tests in
// tests/test_des.cc.

constexpr int pSpec[32] = {
    16, 7,  20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
    2,  8,  24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25,
};

constexpr int pc1Spec[56] = {
    57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
    10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
    14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4,
};

constexpr int pc2Spec[48] = {
    14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
    23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
};

constexpr int shiftSpec[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr uint8_t sboxSpec[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11},
};

/** Build the SP boxes and the byte-indexed key permutations. */
constexpr DesTables
buildDesTables()
{
    DesTables t{};

    // SP boxes: S-box output pushed through the P permutation into
    // its 4-bit field of the 32-bit f output, then rotated into the
    // kernel's frame (halves kept rotated right by one bit).
    for (int box = 0; box < 8; ++box) {
        for (int v = 0; v < 64; ++v) {
            // DES S-box input ordering: bits 1 and 6 select the row,
            // bits 2-5 the column.
            int row = ((v >> 4) & 2) | (v & 1);
            int col = (v >> 1) & 0xf;
            uint8_t s = sboxSpec[box][16 * row + col];
            // Place the 4 output bits at S-box 'box' positions
            // 4*box+1 .. 4*box+4 (1-based), then apply P.
            uint32_t pre_p = static_cast<uint32_t>(s)
                             << (28 - 4 * box);
            uint32_t f = 0;
            for (int bit = 0; bit < 32; ++bit) {
                if ((pre_p >> (32 - pSpec[bit])) & 1)
                    f |= 1u << (31 - bit);
            }
            t.sp[box][v] = rotr32(f, 1);
        }
    }

    // Byte-indexed permutations: table[b][v] is the contribution of
    // input byte b having value v to the permuted output. The output
    // is aligned so its last bit lands at position 0.
    auto build_perm = [](const int *spec, int out_bits, int in_bytes,
                         uint64_t table[][256]) {
        for (int b = 0; b < in_bytes; ++b) {
            for (int v = 0; v < 256; ++v) {
                uint64_t out = 0;
                for (int obit = 0; obit < out_bits; ++obit) {
                    int ibit = spec[obit]; // 1-based input bit
                    int byte_index = (ibit - 1) / 8;
                    if (byte_index != b)
                        continue;
                    int bit_in_byte = (ibit - 1) % 8; // from MSB
                    if ((v >> (7 - bit_in_byte)) & 1)
                        out |= uint64_t(1) << (out_bits - 1 - obit);
                }
                table[b][v] = out;
            }
        }
    };
    build_perm(pc1Spec, 56, 8, t.pc1);
    build_perm(pc2Spec, 48, 7, t.pc2);

    return t;
}

constexpr DesTables tables = buildDesTables();

} // anonymous namespace

const DesTables &
desTables()
{
    return tables;
}

void
desSetKey(const uint8_t key[8], DesKeySchedule &out, bool decrypt)
{
    uint64_t k = load64be(key);

    // PC-1: 64 -> 56 bits, split into 28-bit halves C and D.
    uint64_t cd = 0;
    for (int b = 0; b < 8; ++b)
        cd |= tables.pc1[b][(k >> (56 - 8 * b)) & 0xff];
    uint32_t c = static_cast<uint32_t>(cd >> 28);
    uint32_t d = static_cast<uint32_t>(cd & 0x0fffffff);

    for (int round = 0; round < 16; ++round) {
        c = rotl28(c, shiftSpec[round]);
        d = rotl28(d, shiftSpec[round]);
        uint64_t merged = (static_cast<uint64_t>(c) << 28) | d;
        // PC-2: 56 -> 48 bits as eight 6-bit groups, group 0 on top.
        uint64_t rk = 0;
        for (int b = 0; b < 7; ++b)
            rk |= tables.pc2[b][(merged >> (48 - 8 * b)) & 0xff];
        // Split into the rounds' two words: even groups to word 0,
        // odd groups to word 1, each at bit offsets 26/18/10/2.
        uint32_t *words = out.ks[decrypt ? 15 - round : round];
        words[0] = words[1] = 0;
        for (int g = 0; g < 8; ++g) {
            uint32_t bits = static_cast<uint32_t>(rk >> (42 - 6 * g)) & 0x3f;
            words[g & 1] |= bits << (26 - 8 * (g / 2));
        }
    }
}

namespace
{
void
requireKeySize(const Bytes &key, size_t expected, const char *what)
{
    if (key.size() != expected)
        throw std::invalid_argument(std::string(what) +
                                    ": bad key length");
}

/** IP of N consecutive blocks, halves moved into the round frame. */
template <size_t N>
void
loadBlocks(const uint8_t *in, uint32_t (&l)[N], uint32_t (&r)[N])
{
    for (size_t j = 0; j < N; ++j) {
        desdetail::initialPerm(load64be(in + 8 * j), l[j], r[j]);
        l[j] = rotr32(l[j], 1);
        r[j] = rotr32(r[j], 1);
    }
}

/** FP of N blocks whose pre-output halves are @p hi / @p lo. */
template <size_t N>
void
storeBlocks(uint8_t *out, const uint32_t (&hi)[N], const uint32_t (&lo)[N])
{
    for (size_t j = 0; j < N; ++j)
        store64be(out + 8 * j, desdetail::finalPerm(rotl32(hi[j], 1),
                                                    rotl32(lo[j], 1)));
}

/** Single DES: IP, 16 rounds, FP. */
void
des1(const uint8_t *in, uint8_t *out, const DesKeySchedule &k)
{
    uint32_t l[1], r[1];
    loadBlocks(in, l, r);
    desdetail::rounds(l, r, k, tables.sp);
    storeBlocks(out, r, l);
}

/**
 * EDE3 over N blocks: one IP, three 16-round sets, one FP. Each DES
 * pass ends on L16/R16 unswapped, so the next pass simply takes the
 * halves in the opposite roles.
 */
template <size_t N>
void
ede3(const uint8_t *in, uint8_t *out, const DesKeySchedule &a,
     const DesKeySchedule &b, const DesKeySchedule &c)
{
    uint32_t l[N], r[N];
    loadBlocks(in, l, r);
    desdetail::rounds(l, r, a, tables.sp);
    desdetail::rounds(r, l, b, tables.sp);
    desdetail::rounds(l, r, c, tables.sp);
    storeBlocks(out, r, l);
}

} // anonymous namespace

Des::Des(const Bytes &key)
{
    requireKeySize(key, 8, "DES");
    desSetKey(key.data(), enc_, false);
    desSetKey(key.data(), dec_, true);
}

void
Des::encryptBlock(const uint8_t in[8], uint8_t out[8]) const
{
    des1(in, out, enc_);
}

void
Des::decryptBlock(const uint8_t in[8], uint8_t out[8]) const
{
    des1(in, out, dec_);
}

TripleDes::TripleDes(const Bytes &key)
{
    requireKeySize(key, 24, "3DES");
    desSetKey(key.data(), encK1_, false);
    desSetKey(key.data() + 8, decK2_, true);
    desSetKey(key.data() + 16, encK3_, false);
    desSetKey(key.data() + 16, decK3_, true);
    desSetKey(key.data() + 8, encK2_, false);
    desSetKey(key.data(), decK1_, true);
}

void
TripleDes::encryptBlock(const uint8_t in[8], uint8_t out[8]) const
{
    ede3<1>(in, out, encK1_, decK2_, encK3_);
}

void
TripleDes::decryptBlock(const uint8_t in[8], uint8_t out[8]) const
{
    ede3<1>(in, out, decK3_, encK2_, decK1_);
}

void
TripleDes::decryptTwoBlocks(const uint8_t in[16], uint8_t out[16]) const
{
    ede3<2>(in, out, decK3_, encK2_, decK1_);
}

} // namespace ssla::crypto
