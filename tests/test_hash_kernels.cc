/**
 * @file
 * Hash-layer identity tests: the SHA-1/MD5 block transforms, digests,
 * HMAC and both record-MAC constructions against loop-form reference
 * kernels kept here, the metered op counts against pinned golden
 * histograms (the input of Tables 10/11/12 and the section 6.2 ISA
 * ablation), the per-record allocation budget of the MAC path, and the
 * OpenSSL command-line tool as an external oracle.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "crypto/hmac.hh"
#include "crypto/md5.hh"
#include "crypto/provider.hh"
#include "crypto/sha1.hh"
#include "openssl_cli.hh"
#include "opmix.hh"
#include "util/bytes.hh"
#include "util/endian.hh"
#include "util/hex.hh"
#include "util/rng.hh"

// Heap allocations made by the calling thread: every operator new of
// this test binary counts here, so a test can assert a code path
// allocates nothing. Delete is replaced too, so both halves stay one
// malloc/free pair under sanitizers (GCC cannot see that pairing
// once the replacements inline, hence the pragma).
namespace
{
thread_local uint64_t tlsAllocations = 0;
} // anonymous namespace

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    ++tlsAllocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++tlsAllocations;
    return std::malloc(n ? n : 1);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace ssla;
using crypto::DigestAlg;
using perf::OpClass;

// ---------------------------------------------------------------------
// Reference kernels: the FIPS 180-2 / RFC 1321 transforms in plain loop
// form, one step per iteration, as the bit-identity oracle.

void
refSha1Block(uint32_t h[5], const uint8_t block[64])
{
    uint32_t w[80];
    for (int i = 0; i < 16; ++i)
        w[i] = load32be(block + 4 * i);
    for (int i = 16; i < 80; ++i)
        w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
        uint32_t f, k;
        if (i < 20) {
            f = d ^ (b & (c ^ d));
            k = 0x5a827999u;
        } else if (i < 40) {
            f = b ^ c ^ d;
            k = 0x6ed9eba1u;
        } else if (i < 60) {
            f = (b & c) | (d & (b | c));
            k = 0x8f1bbcdcu;
        } else {
            f = b ^ c ^ d;
            k = 0xca62c1d6u;
        }
        uint32_t temp = rotl32(a, 5) + f + e + k + w[i];
        e = d;
        d = c;
        c = rotl32(b, 30);
        b = a;
        a = temp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
}

void
refMd5Block(uint32_t s[4], const uint8_t block[64])
{
    static const int shifts[4][4] = {
        {7, 12, 17, 22}, {5, 9, 14, 20}, {4, 11, 16, 23}, {6, 10, 15, 21}};
    uint32_t x[16];
    for (int i = 0; i < 16; ++i)
        x[i] = load32le(block + 4 * i);
    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    for (int i = 0; i < 64; ++i) {
        const int round = i / 16;
        uint32_t f;
        int k;
        switch (round) {
          case 0:
            f = d ^ (b & (c ^ d));
            k = i;
            break;
          case 1:
            f = c ^ (d & (b ^ c));
            k = (1 + 5 * i) % 16;
            break;
          case 2:
            f = b ^ c ^ d;
            k = (5 + 3 * i) % 16;
            break;
          default:
            f = c ^ (b | ~d);
            k = (7 * i) % 16;
            break;
        }
        // T[i] = floor(2^32 * |sin(i+1)|), per RFC 1321.
        const uint32_t t = static_cast<uint32_t>(
            std::floor(std::fabs(std::sin(i + 1.0)) * 4294967296.0));
        uint32_t tmp = d;
        d = c;
        c = b;
        b = b + rotl32(a + f + x[k] + t, shifts[round][i % 4]);
        a = tmp;
    }
    s[0] += a;
    s[1] += b;
    s[2] += c;
    s[3] += d;
}

/** Reference digest: Merkle–Damgard padding around the loop kernels. */
Bytes
refHash(DigestAlg alg, const Bytes &msg)
{
    const bool sha = alg == DigestAlg::SHA1;
    uint32_t h[5] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u,
                     0xc3d2e1f0u};
    Bytes padded = msg;
    padded.push_back(0x80);
    while (padded.size() % 64 != 56)
        padded.push_back(0);
    uint8_t len[8];
    if (sha)
        store64be(len, uint64_t(msg.size()) * 8);
    else
        store64le(len, uint64_t(msg.size()) * 8);
    padded.insert(padded.end(), len, len + 8);
    for (size_t off = 0; off < padded.size(); off += 64) {
        if (sha)
            refSha1Block(h, padded.data() + off);
        else
            refMd5Block(h, padded.data() + off);
    }
    Bytes out(sha ? 20 : 16);
    for (size_t i = 0; i < out.size() / 4; ++i) {
        if (sha)
            store32be(out.data() + 4 * i, h[i]);
        else
            store32le(out.data() + 4 * i, h[i]);
    }
    return out;
}

Bytes
cat(std::initializer_list<Bytes> parts)
{
    Bytes out;
    for (const Bytes &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

/** RFC 2104 HMAC over the reference digests. */
Bytes
refHmac(DigestAlg alg, Bytes key, const Bytes &msg)
{
    if (key.size() > 64)
        key = refHash(alg, key);
    key.resize(64, 0);
    Bytes ipad(64), opad(64);
    for (size_t i = 0; i < 64; ++i) {
        ipad[i] = key[i] ^ 0x36;
        opad[i] = key[i] ^ 0x5c;
    }
    return refHash(alg, cat({opad, refHash(alg, cat({ipad, msg}))}));
}

Bytes
seqTypeHeader(uint64_t seq, uint8_t type)
{
    Bytes h(8);
    store64be(h.data(), seq);
    h.push_back(type);
    return h;
}

/** The SSLv3 record MAC as the pad-concatenation construction. */
Bytes
refSsl3Mac(DigestAlg alg, const Bytes &secret, uint64_t seq, uint8_t type,
           const Bytes &data)
{
    const size_t pad = alg == DigestAlg::MD5 ? 48 : 40;
    Bytes hdr = seqTypeHeader(seq, type);
    hdr.push_back(static_cast<uint8_t>(data.size() >> 8));
    hdr.push_back(static_cast<uint8_t>(data.size()));
    Bytes inner =
        refHash(alg, cat({secret, Bytes(pad, 0x36), hdr, data}));
    return refHash(alg, cat({secret, Bytes(pad, 0x5c), inner}));
}

/** The TLS 1.0 record MAC: HMAC over seq/type/version/length/data. */
Bytes
refTls1Mac(DigestAlg alg, const Bytes &secret, uint64_t seq, uint8_t type,
           uint16_t version, const Bytes &data)
{
    Bytes hdr = seqTypeHeader(seq, type);
    hdr.push_back(static_cast<uint8_t>(version >> 8));
    hdr.push_back(static_cast<uint8_t>(version));
    hdr.push_back(static_cast<uint8_t>(data.size() >> 8));
    hdr.push_back(static_cast<uint8_t>(data.size()));
    return refHmac(alg, secret, cat({hdr, data}));
}

const char *
algName(DigestAlg alg)
{
    return alg == DigestAlg::SHA1 ? "SHA-1" : "MD5";
}

// ---------------------------------------------------------------------
// Metered op counts

/** Expect @p hist to hold exactly @p golden (every other class 0). */
void
expectHistogram(const perf::OpHistogram &hist,
                std::initializer_list<std::pair<OpClass, uint64_t>> golden)
{
    perf::OpHistogram want;
    for (const auto &[c, n] : golden)
        want.add(c, n);
    for (size_t i = 0; i < perf::numOpClasses; ++i) {
        const auto c = static_cast<OpClass>(i);
        EXPECT_EQ(hist.count(c), want.count(c)) << perf::opClassName(c);
    }
}

TEST(HashKernels, Sha1OpMixIsPinned)
{
    // bench::sha1Mix(1024): 16 metered blocks. Tables 10/11/12 and the
    // 3-operand ablation read these counts; the kernel's form must
    // never move them.
    const bench::OpMix mix = bench::sha1Mix();
    expectHistogram(mix.hist, {{OpClass::MovL, 9632},
                               {OpClass::XorL, 4992},
                               {OpClass::AndL, 960},
                               {OpClass::OrL, 640},
                               {OpClass::AddL, 3920},
                               {OpClass::RolL, 2304},
                               {OpClass::RorL, 1280},
                               {OpClass::LeaL, 1280},
                               {OpClass::Push, 64},
                               {OpClass::Pop, 64},
                               {OpClass::Ret, 16},
                               {OpClass::Bswap, 256}});
    EXPECT_EQ(mix.hist.total(), 25408u);
}

TEST(HashKernels, Md5OpMixIsPinned)
{
    const bench::OpMix mix = bench::md5Mix();
    expectHistogram(mix.hist, {{OpClass::MovL, 2688},
                               {OpClass::XorL, 2048},
                               {OpClass::AndL, 768},
                               {OpClass::AddL, 2112},
                               {OpClass::RolL, 1024},
                               {OpClass::LeaL, 1024},
                               {OpClass::Push, 64},
                               {OpClass::Pop, 64},
                               {OpClass::Ret, 16}});
    EXPECT_EQ(mix.hist.total(), 9808u);
}

// ---------------------------------------------------------------------
// Bit identity against the loop-form reference

TEST(HashKernels, BlockTransformsMatchLoopReference)
{
    Xoshiro256 rng(0x5a1);
    perf::NullMeter null;
    perf::CountingMeter counting;
    for (int trial = 0; trial < 300; ++trial) {
        Bytes block = rng.bytes(64);
        uint32_t ref[5];
        for (uint32_t &w : ref)
            w = static_cast<uint32_t>(rng.next());

        crypto::Sha1State sha{{ref[0], ref[1], ref[2], ref[3], ref[4]}};
        crypto::Sha1State metered = sha;
        crypto::sha1BlockT(sha, block.data(), null);
        crypto::sha1BlockT(metered, block.data(), counting);
        crypto::Md5State md5{ref[0], ref[1], ref[2], ref[3]};
        crypto::Md5State md5Metered = md5;
        crypto::md5BlockT(md5, block.data(), null);
        crypto::md5BlockT(md5Metered, block.data(), counting);

        uint32_t md5Ref[4] = {ref[0], ref[1], ref[2], ref[3]};
        refSha1Block(ref, block.data());
        refMd5Block(md5Ref, block.data());
        for (int i = 0; i < 5; ++i) {
            ASSERT_EQ(sha.h[i], ref[i]) << "trial " << trial;
            ASSERT_EQ(metered.h[i], ref[i]) << "trial " << trial;
        }
        const uint32_t got[4] = {md5.a, md5.b, md5.c, md5.d};
        const uint32_t gotMetered[4] = {md5Metered.a, md5Metered.b,
                                        md5Metered.c, md5Metered.d};
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(got[i], md5Ref[i]) << "trial " << trial;
            ASSERT_EQ(gotMetered[i], md5Ref[i]) << "trial " << trial;
        }
    }
}

TEST(HashKernels, DigestsMatchReferenceAtEveryLength)
{
    Xoshiro256 rng(0xd16);
    for (DigestAlg alg : {DigestAlg::MD5, DigestAlg::SHA1}) {
        for (size_t len = 0; len <= 200; ++len) {
            Bytes msg = rng.bytes(len);
            const Bytes want = refHash(alg, msg);
            EXPECT_EQ(crypto::digestOneShot(alg, msg), want)
                << algName(alg) << " len " << len;
            // The same message split at a random point.
            auto d = crypto::Digest::create(alg);
            size_t cut = len ? rng.nextBelow(len + 1) : 0;
            d->update(msg.data(), cut);
            d->update(msg.data() + cut, len - cut);
            EXPECT_EQ(d->final(), want) << algName(alg) << " len " << len
                                        << " cut " << cut;
        }
    }
}

TEST(HashKernels, HmacMatchesReference)
{
    Xoshiro256 rng(0x4ac);
    for (DigestAlg alg : {DigestAlg::MD5, DigestAlg::SHA1}) {
        for (size_t key_len : {0u, 1u, 16u, 20u, 63u, 64u, 65u, 130u}) {
            Bytes key = rng.bytes(key_len);
            crypto::Hmac h(alg, key);
            for (size_t len : {0u, 1u, 55u, 64u, 119u, 200u, 1024u}) {
                Bytes msg = rng.bytes(len);
                const Bytes want = refHmac(alg, key, msg);
                EXPECT_EQ(crypto::Hmac::compute(alg, key, msg), want)
                    << algName(alg) << " key " << key_len << " len "
                    << len;
                // The same instance restarted, message in two pieces.
                h.init();
                h.update(msg.data(), len / 3);
                h.update(msg.data() + len / 3, len - len / 3);
                EXPECT_EQ(h.final(), want) << algName(alg) << " key "
                                           << key_len << " len " << len;
            }
        }
    }
}

TEST(HashKernels, RecordMacsMatchReferenceConstruction)
{
    Xoshiro256 rng(0x3ac);
    std::vector<size_t> lengths;
    for (size_t len = 0; len <= 200; ++len)
        lengths.push_back(len);
    lengths.push_back(1024);
    lengths.push_back(16384);
    for (DigestAlg alg : {DigestAlg::MD5, DigestAlg::SHA1}) {
        for (uint16_t version : {uint16_t(0x0300), uint16_t(0x0301)}) {
            const size_t secret_len = alg == DigestAlg::MD5 ? 16 : 20;
            const Bytes secret = rng.bytes(secret_len);
            const crypto::RecordMacSpec spec{alg, secret, version};
            for (size_t len : lengths) {
                const Bytes data = rng.bytes(len);
                const uint64_t seq = rng.next() >> (len % 64);
                const uint8_t type = static_cast<uint8_t>(20 + len % 4);
                const Bytes want =
                    version == 0x0300
                        ? refSsl3Mac(alg, secret, seq, type, data)
                        : refTls1Mac(alg, secret, seq, type, version, data);
                uint8_t mac[crypto::maxRecordMacLen];
                const size_t n = crypto::scalarProvider().recordMac(
                    spec, seq, type, ConstSpan{data}, mac);
                ASSERT_EQ(Bytes(mac, mac + n), want)
                    << algName(alg) << " version " << version << " len "
                    << len;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Allocation budget

TEST(HashKernels, RecordMacAllocatesNothingPerRecord)
{
    Xoshiro256 rng(0xa11);
    const Bytes data = rng.bytes(1024);
    for (DigestAlg alg : {DigestAlg::MD5, DigestAlg::SHA1}) {
        for (uint16_t version : {uint16_t(0x0300), uint16_t(0x0301)}) {
            const crypto::RecordMacSpec spec{alg, rng.bytes(20), version};
            uint8_t mac[crypto::maxRecordMacLen];
            const uint64_t before = tlsAllocations;
            for (uint64_t seq = 0; seq < 8; ++seq) {
                crypto::scalarProvider().recordMac(spec, seq, 23,
                                                   ConstSpan{data}, mac);
                crypto::defaultProvider().recordMac(spec, seq, 23,
                                                    ConstSpan{data}, mac);
            }
            EXPECT_EQ(tlsAllocations, before)
                << algName(alg) << " version " << version;
        }
    }
}

TEST(HashKernels, HmacRestartAndFinishAllocateNothing)
{
    for (DigestAlg alg : {DigestAlg::MD5, DigestAlg::SHA1}) {
        crypto::Hmac h(alg, toBytes("hmac restart key"));
        const Bytes msg(300, 0x61);
        uint8_t tag[crypto::maxRecordMacLen];
        const uint64_t before = tlsAllocations;
        for (int i = 0; i < 4; ++i) {
            h.init();
            h.update(msg);
            h.final(tag);
        }
        EXPECT_EQ(tlsAllocations, before) << algName(alg);
    }
}

// ---------------------------------------------------------------------
// External oracle: the OpenSSL command-line tool

TEST(HashOracle, DigestsMatchOpensslDgst)
{
    if (!test::haveOpensslCli())
        GTEST_SKIP() << "openssl not on PATH";
    Xoshiro256 rng(0x0dd);
    for (size_t len : {0u, 3u, 55u, 56u, 64u, 1000u, 16384u}) {
        const Bytes msg = rng.bytes(len);
        for (DigestAlg alg : {DigestAlg::MD5, DigestAlg::SHA1}) {
            const auto oracle = test::runOpenssl(
                alg == DigestAlg::MD5 ? "dgst -md5 -binary"
                                      : "dgst -sha1 -binary",
                msg);
            ASSERT_TRUE(oracle) << "openssl dgst failed";
            EXPECT_EQ(crypto::digestOneShot(alg, msg), *oracle)
                << algName(alg) << " len " << len;
        }
    }
}

TEST(HashOracle, HmacMatchesOpensslMac)
{
    if (!test::haveOpensslCli())
        GTEST_SKIP() << "openssl not on PATH";
    Xoshiro256 rng(0x0ac);
    for (size_t key_len : {1u, 20u, 64u, 65u, 100u}) {
        const Bytes key = rng.bytes(key_len);
        const Bytes msg = rng.bytes(37 * key_len);
        for (DigestAlg alg : {DigestAlg::MD5, DigestAlg::SHA1}) {
            const auto oracle = test::runOpenssl(
                std::string("mac -binary -digest ") +
                    (alg == DigestAlg::MD5 ? "MD5" : "SHA1") +
                    " -macopt hexkey:" + hexEncode(key) + " HMAC",
                msg);
            ASSERT_TRUE(oracle) << "openssl mac failed";
            EXPECT_EQ(crypto::Hmac::compute(alg, key, msg), *oracle)
                << algName(alg) << " key " << key_len;
        }
    }
}

} // anonymous namespace
