#include <iterator>
#include "bn/prime.hh"

#include <stdexcept>

#include "bn/engine.hh"
#include "bn/modexp.hh"

namespace ssla::bn
{

namespace
{

/** Small primes for trial division before Miller-Rabin. */
const uint32_t smallPrimes[] = {
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359,
    367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439,
    443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607,
    613, 617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683,
    691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773,
    787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863,
    877, 881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967,
    971, 977, 983, 991, 997,
};

/** n mod d for a single-word divisor, without building a BigNum. */
uint32_t
modWord(const BigNum &n, uint32_t d)
{
    uint64_t rem = 0;
    const auto &limbs = n.limbs();
    for (size_t i = limbs.size(); i-- > 0;)
        rem = ((rem << limbBits) | limbs[i]) % d;
    return static_cast<uint32_t>(rem);
}

/** Miller-Rabin rounds for a ~2^-80 error bound, by candidate size. */
int
defaultRounds(size_t bits)
{
    if (bits >= 1300)
        return 2;
    if (bits >= 850)
        return 3;
    if (bits >= 650)
        return 4;
    if (bits >= 550)
        return 5;
    if (bits >= 450)
        return 6;
    if (bits >= 400)
        return 7;
    if (bits >= 350)
        return 8;
    if (bits >= 300)
        return 9;
    if (bits >= 250)
        return 12;
    if (bits >= 200)
        return 15;
    if (bits >= 150)
        return 18;
    return 27;
}

} // anonymous namespace

BigNum
randomBits(size_t bits, const RngFunc &rng)
{
    if (bits == 0)
        return BigNum();
    size_t nbytes = (bits + 7) / 8;
    Bytes buf(nbytes);
    rng(buf.data(), buf.size());
    // Mask excess bits, then force the top bit so the length is exact.
    unsigned top_bits = bits % 8 == 0 ? 8 : bits % 8;
    buf[0] &= static_cast<uint8_t>(0xff >> (8 - top_bits));
    buf[0] |= static_cast<uint8_t>(1 << (top_bits - 1));
    return BigNum::fromBytesBE(buf);
}

BigNum
randomBelow(const BigNum &bound, const RngFunc &rng)
{
    if (bound.isZero() || bound.isNegative())
        throw std::domain_error("randomBelow: bound must be positive");
    size_t bits = bound.bitLength();
    size_t nbytes = (bits + 7) / 8;
    unsigned top_bits = bits % 8 == 0 ? 8 : bits % 8;
    Bytes buf(nbytes);
    // Rejection sampling: mask to the bit length, retry while >= bound.
    for (;;) {
        rng(buf.data(), buf.size());
        buf[0] &= static_cast<uint8_t>(0xff >> (8 - top_bits));
        BigNum candidate = BigNum::fromBytesBE(buf);
        if (candidate < bound)
            return candidate;
    }
}

bool
passesTrialDivision(const BigNum &n)
{
    for (uint32_t p : smallPrimes) {
        if (n == BigNum(p))
            return true;
        if (modWord(n, p) == 0)
            return false;
    }
    return true;
}

bool
millerRabin(const BigNum &n, int rounds, const RngFunc &rng)
{
    if (n < BigNum(2))
        return false;
    if (n == BigNum(2) || n == BigNum(3))
        return true;
    if (!n.isOdd())
        return false;

    // n - 1 = d * 2^s with d odd.
    BigNum n_minus_1 = n - BigNum(1);
    size_t s = 0;
    while (!n_minus_1.testBit(s))
        ++s;
    BigNum d = n_minus_1.shiftRight(s);

    MontgomeryCtx ctx(n, bn32Engine());
    BigNum two(2);
    BigNum n_minus_3 = n - BigNum(3);

    for (int r = 0; r < rounds; ++r) {
        // a uniform in [2, n-2].
        BigNum a = randomBelow(n_minus_3, rng) + two;
        BigNum x = modExpMont(a, d, ctx);
        if (x.isOne() || x == n_minus_1)
            continue;
        bool witness = true;
        for (size_t i = 1; i < s; ++i) {
            x = x.sqr().mod(n);
            if (x == n_minus_1) {
                witness = false;
                break;
            }
        }
        if (witness)
            return false;
    }
    return true;
}

bool
isProbablePrime(const BigNum &n, const RngFunc &rng)
{
    if (n < BigNum(2))
        return false;
    if (!passesTrialDivision(n))
        return false;
    if (n <= BigNum(smallPrimes[std::size(smallPrimes) - 1]))
        return true; // trial division was exhaustive for small n
    return millerRabin(n, defaultRounds(n.bitLength()), rng);
}

BigNum
generatePrime(size_t bits, const RngFunc &rng)
{
    if (bits < 16)
        throw std::domain_error("generatePrime: need at least 16 bits");
    for (;;) {
        BigNum candidate = randomBits(bits, rng);
        // Force the two top bits (RSA modulus length) and oddness.
        candidate.setBit(bits - 1);
        candidate.setBit(bits - 2);
        candidate.setBit(0);
        if (isProbablePrime(candidate, rng))
            return candidate;
    }
}

} // namespace ssla::bn
