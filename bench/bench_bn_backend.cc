/**
 * @file
 * A/B gate for the bignum backend seam: the paper-era 32-bit core
 * (bn32, the Table 8/9 profiling anchor) against the 64-bit/Karatsuba
 * engine (bn64).
 *
 * Three things are measured and gated:
 *
 *   1. Correctness — RSA decrypt/sign and DH shared-secret agreement
 *      must be bit-identical across backends, on fixed vectors and on
 *      randomized inputs, plus a randomized raw-modexp differential.
 *      Any mismatch exits nonzero: a backend that is fast but wrong
 *      never lands.
 *   2. Full RSA-1024/2048 modexp A/B timing — the recorded speedup
 *      factor, gated on bn64 actually beating bn32 (each limb doubling
 *      quarters the mul-add body count; Karatsuba compounds it above
 *      1024 bits).
 *   3. A Table-8-shaped per-kernel flat profile of RSA-1024 decryption
 *      on each backend, so the anatomy shift (bn_mul_add_words ->
 *      bn64_mul_add_words) is visible in one artifact.
 *
 * Usage:
 *   ./bench_bn_backend [--smoke]   # JSON (BENCH_bn_backend.json) on
 *                                  # stdout; exit 0 iff every gate holds
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bn/engine.hh"
#include "common.hh"
#include "crypto/dh.hh"
#include "crypto/pkcs1.hh"
#include "perf/probe.hh"
#include "util/cycles.hh"

using namespace ssla;
using namespace ssla::bench;
using bn::BigNum;

namespace
{

/** Deterministic value of exactly @p bits (top bit pinned). */
BigNum
fixedBits(Xoshiro256 &rng, size_t bits, bool odd = false)
{
    Bytes b = rng.bytes((bits + 7) / 8);
    b[0] |= 0x80;
    if (odd)
        b[b.size() - 1] |= 0x01;
    return BigNum::fromBytesBE(b);
}

/** Clone @p key onto @p engine (same components, different backend). */
crypto::RsaPrivateKey
rekey(const crypto::RsaPrivateKey &key, const bn::Engine &engine)
{
    return crypto::RsaPrivateKey(key.publicKey().n, key.publicKey().e,
                                 key.d(), key.p(), key.q(), engine);
}

/**
 * RSA decrypt + sign differential on one key size: every randomized
 * input must produce bit-identical outputs on both backends.
 */
bool
rsaIdentical(size_t bits, int iters)
{
    const auto &kp = benchKey(bits);
    crypto::RsaPrivateKey k32 = rekey(*kp.priv, bn::bn32Engine());
    crypto::RsaPrivateKey k64 = rekey(*kp.priv, bn::bn64Engine());
    crypto::RandomPool pool(Bytes{0xab, static_cast<uint8_t>(bits)});
    Xoshiro256 rng(0xab00 + bits);

    for (int i = 0; i < iters; ++i) {
        Bytes msg = rng.bytes(1 + rng.nextBelow(bits / 8 - 12));
        Bytes cipher = crypto::rsaPublicEncrypt(kp.pub, msg, pool);
        Bytes p32 = crypto::rsaPrivateDecrypt(k32, cipher);
        Bytes p64 = crypto::rsaPrivateDecrypt(k64, cipher);
        if (p32 != p64 || p32 != msg)
            return false;
        Bytes digest = rng.bytes(36); // MD5||SHA1, the ssl3 signing input
        if (crypto::rsaSign(k32, digest) != crypto::rsaSign(k64, digest))
            return false;
    }
    return true;
}

/**
 * DH agreement: the library's shared secret (bn32) must equal the same
 * modexp on bn64, on both sides of each exchange.
 */
bool
dhIdentical(int iters)
{
    const crypto::DhParams &group = crypto::oakleyGroup2();
    auto z64 = [&](const BigNum &peer_pub, const BigNum &priv) {
        return bn::bn64Engine().modExp(peer_pub, priv, group.p).toBytesBE();
    };
    for (int i = 0; i < iters; ++i) {
        crypto::RandomPool pa(Bytes{0xd4, static_cast<uint8_t>(i)});
        crypto::RandomPool pb(Bytes{0xd5, static_cast<uint8_t>(i)});
        crypto::DhKeyPair a = crypto::dhGenerateKey(group, pa);
        crypto::DhKeyPair b = crypto::dhGenerateKey(group, pb);
        Bytes z32a = crypto::dhComputeShared(group, b.pub, a.priv);
        Bytes z32b = crypto::dhComputeShared(group, a.pub, b.priv);
        if (z32a != z32b || z32a != z64(b.pub, a.priv) ||
            z32b != z64(a.pub, b.priv))
            return false;
    }
    return true;
}

/** Raw modexp differential: fixed vectors plus randomized inputs. */
bool
modexpIdentical(int iters)
{
    // Fixed vector with an independently known answer first.
    if (bn::bn64Engine().modExp(BigNum(2), BigNum(128),
                                BigNum::fromHex("10001")) !=
        bn::bn32Engine().modExp(BigNum(2), BigNum(128),
                                BigNum::fromHex("10001")))
        return false;
    Xoshiro256 rng(0x3a0d);
    for (size_t bits : {512u, 1024u, 1056u, 2048u}) {
        BigNum m = fixedBits(rng, bits, /*odd=*/true);
        for (int i = 0; i < iters; ++i) {
            BigNum base = fixedBits(rng, bits).mod(m);
            BigNum exp = fixedBits(rng, bits);
            if (bn::bn32Engine().modExp(base, exp, m) !=
                bn::bn64Engine().modExp(base, exp, m))
                return false;
        }
    }
    return true;
}

struct ModexpCell
{
    size_t bits;
    double ms32;
    double ms64;
    double speedup;
};

/**
 * Full (non-CRT) modexp timing at @p bits: modulus-sized base and
 * exponent, the operation RSA performs per CRT half and DHE per side.
 */
ModexpCell
timeModexp(size_t bits, int reps)
{
    Xoshiro256 rng(0x7153 + bits);
    BigNum m = fixedBits(rng, bits, /*odd=*/true);
    BigNum base = fixedBits(rng, bits).mod(m);
    BigNum exp = fixedBits(rng, bits);

    auto run = [&](const bn::Engine &e) {
        return static_cast<double>(medianCycles(
                   [&] { e.modExp(base, exp, m); }, reps)) /
               cycleHz() * 1e3;
    };
    ModexpCell cell;
    cell.bits = bits;
    cell.ms32 = run(bn::bn32Engine());
    cell.ms64 = run(bn::bn64Engine());
    cell.speedup = cell.ms64 > 0 ? cell.ms32 / cell.ms64 : 0.0;
    return cell;
}

struct ProfileRow
{
    std::string function;
    double pct;
    double callsPerOp;
};

/**
 * Table-8-shaped flat profile of RSA-1024 private decryption on
 * @p engine: top functions by exclusive cycles.
 */
std::vector<ProfileRow>
profileRsa(const bn::Engine &engine, int runs)
{
    const auto &kp = benchKey(1024);
    crypto::RsaPrivateKey key = rekey(*kp.priv, engine);
    crypto::RandomPool pool(Bytes{0x9e});
    Bytes cipher =
        crypto::rsaPublicEncrypt(kp.pub, Bytes(48, 0x17), pool);
    crypto::rsaPrivateDecrypt(key, cipher); // warm-up

    perf::PerfContext ctx(true); // fine-grained: bn kernels report
    {
        perf::ContextScope scope(&ctx);
        for (int i = 0; i < runs; ++i)
            crypto::rsaPrivateDecrypt(key, cipher);
    }

    uint64_t total = ctx.totalExclusive();
    std::vector<std::pair<std::string, perf::Counter>> rows(
        ctx.counters().begin(), ctx.counters().end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.exclusive > b.second.exclusive;
              });

    std::vector<ProfileRow> out;
    for (const auto &[name, counter] : rows) {
        if (out.size() >= 8)
            break;
        out.push_back(
            {name,
             100.0 * static_cast<double>(counter.exclusive) /
                 static_cast<double>(total),
             static_cast<double>(counter.calls) / runs});
    }
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;

    warmUpCpu();
    const int diffIters = smoke ? 3 : 12;
    const int timeReps = smoke ? 5 : 15;
    const int profileRuns = smoke ? 10 : 30;

    bool rsa_ok =
        rsaIdentical(512, diffIters) && rsaIdentical(1024, diffIters);
    bool dh_ok = dhIdentical(smoke ? 2 : 6);
    bool modexp_ok = modexpIdentical(smoke ? 1 : 3);

    std::vector<ModexpCell> cells;
    cells.push_back(timeModexp(1024, timeReps));
    cells.push_back(timeModexp(2048, timeReps));
    bool faster = true;
    for (const ModexpCell &c : cells)
        faster = faster && c.speedup > 1.0;

    bool pass = rsa_ok && dh_ok && modexp_ok && faster;

    JsonWriter j;
    j.beginObject();
    j.field("bench", "bn_backend");
    j.field("smoke", smoke);
    j.field("cycle_hz", cycleHz(), 0);
    j.beginObject("gate");
    j.field("pass", pass);
    j.field("rsa_identical", rsa_ok);
    j.field("dh_identical", dh_ok);
    j.field("modexp_identical", modexp_ok);
    j.field("bn64_faster", faster);
    j.endObject();

    j.beginArray("modexp");
    for (const ModexpCell &c : cells) {
        j.beginObject();
        j.field("bits", static_cast<uint64_t>(c.bits));
        j.field("bn32_ms", c.ms32, 3);
        j.field("bn64_ms", c.ms64, 3);
        j.field("speedup", c.speedup, 2);
        j.endObject();
    }
    j.endArray();

    j.beginArray("profiles");
    struct
    {
        const char *name;
        const bn::Engine &engine;
    } backends[] = {{"bn32", bn::bn32Engine()},
                    {"bn64", bn::bn64Engine()}};
    for (const auto &b : backends) {
        j.beginObject();
        j.field("backend", b.name);
        j.beginArray("rows");
        for (const ProfileRow &row : profileRsa(b.engine, profileRuns)) {
            j.beginObject();
            j.field("function", row.function);
            j.field("pct", row.pct, 2);
            j.field("calls_per_op", row.callsPerOp, 1);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    j.endArray();
    j.endObject();

    return pass ? 0 : 1;
}
