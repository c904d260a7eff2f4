/**
 * @file
 * Crypto provider layer tests: the shipped providers' bignum anchor and
 * the instrumented decorator's probe accounting and kernel equivalence.
 */

#include <gtest/gtest.h>

#include "crypto/provider.hh"
#include "perf/probe.hh"
#include "ssl/record.hh"
#include "util/bytes.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using namespace ssla::ssl;

TEST(ProviderRegistry, BnEnginePerProvider)
{
    // Both shipped providers pin the bn32 Table 7/8 profiling anchor.
    EXPECT_EQ(crypto::scalarProvider().bnEngine().limbBits(), 32u);
    EXPECT_EQ(crypto::defaultProvider().bnEngine().limbBits(), 32u);
}

TEST(ProviderRegistry, DefaultIsInstrumentedScalar)
{
    EXPECT_STREQ(crypto::defaultProvider().name(), "instrumented");
    EXPECT_STREQ(crypto::scalarProvider().name(), "scalar");
}

TEST(InstrumentedProvider, ProbeCountsMatchOperations)
{
    crypto::InstrumentedProvider instrumented(crypto::scalarProvider());
    Xoshiro256 rng(11);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    Bytes data = rng.bytes(256);
    crypto::RecordMacSpec spec{crypto::DigestAlg::SHA1, rng.bytes(20),
                               ssl3Version};

    perf::PerfContext ctx;
    {
        perf::ContextScope scope(&ctx);
        auto enc = instrumented.createCipher(crypto::CipherAlg::Aes128Cbc,
                                             key, iv, true);
        auto dec = instrumented.createCipher(crypto::CipherAlg::Aes128Cbc,
                                             key, iv, false);
        for (int i = 0; i < 3; ++i)
            enc->process(data.data(), data.data(), data.size());
        dec->process(data.data(), data.data(), data.size());
        uint8_t mac[crypto::maxRecordMacLen];
        for (int i = 0; i < 5; ++i)
            instrumented.recordMac(spec, i, 23, ConstSpan{data}, mac);
    }

    const auto &counters = ctx.counters();
    ASSERT_TRUE(counters.count("pri_encryption"));
    ASSERT_TRUE(counters.count("pri_decryption"));
    ASSERT_TRUE(counters.count("mac"));
    EXPECT_EQ(counters.at("pri_encryption").calls, 3u);
    EXPECT_EQ(counters.at("pri_decryption").calls, 1u);
    EXPECT_EQ(counters.at("mac").calls, 5u);
    EXPECT_GT(ctx.cyclesFor("pri_encryption"), 0u);
    EXPECT_GT(ctx.cyclesFor("mac"), 0u);
}

TEST(InstrumentedProvider, OutputsMatchScalarKernels)
{
    crypto::InstrumentedProvider instrumented(crypto::scalarProvider());
    crypto::Provider &scalar = crypto::scalarProvider();
    Xoshiro256 rng(12);
    Bytes key = rng.bytes(16);
    Bytes iv = rng.bytes(16);
    Bytes data = rng.bytes(160);

    Bytes a = data, b = data;
    instrumented.createCipher(crypto::CipherAlg::Aes128Cbc, key, iv, true)
        ->process(a.data(), a.data(), a.size());
    scalar.createCipher(crypto::CipherAlg::Aes128Cbc, key, iv, true)
        ->process(b.data(), b.data(), b.size());
    EXPECT_EQ(a, b);

    for (uint16_t version : {ssl3Version, tls1Version}) {
        crypto::RecordMacSpec spec{crypto::DigestAlg::SHA1,
                                   Bytes(20, 0x5c), version};
        uint8_t mac_a[crypto::maxRecordMacLen];
        uint8_t mac_b[crypto::maxRecordMacLen];
        size_t len_a =
            instrumented.recordMac(spec, 7, 23, ConstSpan{data}, mac_a);
        size_t len_b =
            scalar.recordMac(spec, 7, 23, ConstSpan{data}, mac_b);
        ASSERT_EQ(len_a, len_b) << "version " << version;
        EXPECT_EQ(Bytes(mac_a, mac_a + len_a), Bytes(mac_b, mac_b + len_b))
            << "version " << version;
    }
}

} // anonymous namespace
