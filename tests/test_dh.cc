/**
 * @file
 * Diffie-Hellman tests: group validation, key agreement, degenerate
 * value rejection, and full DHE_RSA handshakes (SSLv3 and TLS).
 */

#include <gtest/gtest.h>

#include "bn/engine.hh"
#include "bn/prime.hh"
#include "perf/probe.hh"
#include "crypto/dh.hh"
#include "ssl/client.hh"
#include "ssl/server.hh"
#include "util/bytes.hh"

#include "testkeys.hh"

namespace
{

using namespace ssla;
using namespace ssla::crypto;
using bn::BigNum;

RandomPool &
dhPool()
{
    static RandomPool pool(toBytes("dh-tests"));
    return pool;
}

TEST(Dh, OakleyGroup2IsASafePrime)
{
    const DhParams &g = oakleyGroup2();
    EXPECT_EQ(g.p.bitLength(), 1024u);
    EXPECT_EQ(g.g, BigNum(2));
    auto rng = test::seededRng(1);
    EXPECT_TRUE(bn::millerRabin(g.p, 8, rng));
    BigNum q = (g.p - BigNum(1)).shiftRight(1);
    EXPECT_TRUE(bn::millerRabin(q, 8, rng));
}

TEST(Dh, KeyGeneration)
{
    const DhParams &g = oakleyGroup2();
    DhKeyPair kp = dhGenerateKey(g, dhPool());
    EXPECT_EQ(kp.priv.bitLength(), 256u);
    EXPECT_GT(kp.pub, BigNum(1));
    EXPECT_LT(kp.pub, g.p);
    // pub really is g^priv mod p.
    EXPECT_EQ(kp.pub, bn::bn32Engine().modExp(g.g, kp.priv, g.p));
}

TEST(Dh, KeysAreFresh)
{
    const DhParams &g = oakleyGroup2();
    DhKeyPair a = dhGenerateKey(g, dhPool());
    DhKeyPair b = dhGenerateKey(g, dhPool());
    EXPECT_NE(a.priv, b.priv);
    EXPECT_NE(a.pub, b.pub);
}

TEST(Dh, Agreement)
{
    const DhParams &g = oakleyGroup2();
    DhKeyPair alice = dhGenerateKey(g, dhPool());
    DhKeyPair bob = dhGenerateKey(g, dhPool());
    Bytes z1 = dhComputeShared(g, bob.pub, alice.priv);
    Bytes z2 = dhComputeShared(g, alice.pub, bob.priv);
    EXPECT_EQ(z1, z2);
    EXPECT_FALSE(z1.empty());
}

TEST(Dh, RejectsDegeneratePublicValues)
{
    const DhParams &g = oakleyGroup2();
    DhKeyPair kp = dhGenerateKey(g, dhPool());
    EXPECT_THROW(dhComputeShared(g, BigNum(0), kp.priv),
                 std::domain_error);
    EXPECT_THROW(dhComputeShared(g, BigNum(1), kp.priv),
                 std::domain_error);
    EXPECT_THROW(dhComputeShared(g, g.p - BigNum(1), kp.priv),
                 std::domain_error);
    EXPECT_THROW(dhComputeShared(g, g.p, kp.priv), std::domain_error);
}

TEST(Dh, SmallGroupSanity)
{
    // A toy group computed by hand: p=23, g=5.
    DhParams g{BigNum(23), BigNum(5)};
    // 5^6 mod 23 = 8; 5^15 mod 23 = 19; shared = 5^90 mod 23 = 2^...
    Bytes z1 = dhComputeShared(g, BigNum(19), BigNum(6));
    Bytes z2 = dhComputeShared(g, BigNum(8), BigNum(15));
    EXPECT_EQ(z1, z2);
    EXPECT_EQ(BigNum::fromBytesBE(z1),
              bn::bn32Engine().modExp(BigNum(5), BigNum(90),
                                      BigNum(23)));
}

// ---- DHE handshakes ----------------------------------------------------

struct DheHarness
{
    ssl::BioPair wires;
    ssl::ServerConfig scfg;
    ssl::ClientConfig ccfg;
    RandomPool pool{toBytes("dhe-handshake")};

    DheHarness()
    {
        scfg.certificate = test::testServerCert();
        scfg.privateKey = test::testKey1024().priv;
        scfg.randomPool = &pool;
        scfg.suites = {ssl::CipherSuiteId::DHE_RSA_AES_128_CBC_SHA};
        ccfg.randomPool = &pool;
    }
};

class DheSuites : public ::testing::TestWithParam<
                      std::pair<ssl::CipherSuiteId, uint16_t>>
{};

TEST_P(DheSuites, HandshakeAndTransfer)
{
    auto [suite, version] = GetParam();
    DheHarness h;
    h.scfg.suites = {suite};
    h.ccfg.suites = {suite};
    h.ccfg.maxVersion = version;

    ssl::SslServer server(h.scfg, h.wires.serverEnd());
    ssl::SslClient client(h.ccfg, h.wires.clientEnd());
    runLockstep(client, server);

    EXPECT_EQ(client.suite().id, suite);
    EXPECT_EQ(client.suite().kx, ssl::KxKind::DheRsa);
    EXPECT_EQ(client.negotiatedVersion(), version);

    client.writeApplicationData(toBytes("dhe data"));
    auto got = server.readApplicationData();
    ASSERT_TRUE(got);
    EXPECT_EQ(toString(*got), "dhe data");
}

INSTANTIATE_TEST_SUITE_P(
    SuitesAndVersions, DheSuites,
    ::testing::Values(
        std::pair{ssl::CipherSuiteId::DHE_RSA_3DES_EDE_CBC_SHA,
                  ssl::ssl3Version},
        std::pair{ssl::CipherSuiteId::DHE_RSA_AES_128_CBC_SHA,
                  ssl::ssl3Version},
        std::pair{ssl::CipherSuiteId::DHE_RSA_AES_128_CBC_SHA,
                  ssl::tls1Version},
        std::pair{ssl::CipherSuiteId::DHE_RSA_AES_256_CBC_SHA,
                  ssl::tls1Version}));

TEST(DheHandshake, CertificateStillVerifiable)
{
    DheHarness h;
    h.ccfg.trustedIssuer = &test::testKey1024().pub;
    ssl::SslServer server(h.scfg, h.wires.serverEnd());
    ssl::SslClient client(h.ccfg, h.wires.clientEnd());
    runLockstep(client, server);
    EXPECT_TRUE(client.handshakeDone());
}

TEST(DheHandshake, TamperedServerKxRejected)
{
    // Flip a bit in the ServerKeyExchange in flight; the client must
    // reject the signature.
    DheHarness h;
    ssl::SslServer server(h.scfg, h.wires.serverEnd());
    ssl::SslClient client(h.ccfg, h.wires.clientEnd());

    client.advance(); // hello out
    server.advance(); // hello/cert/skx/done out

    ssl::BioEndpoint ce = h.wires.clientEnd();
    Bytes buf(16384);
    size_t n = ce.peek(buf.data(), buf.size());
    ASSERT_GT(n, 600u);
    // Find the ServerKeyExchange (type 12) and corrupt its dh_Ys
    // region (a fixed offset into the server flight would be fragile;
    // flip a byte well inside the second half of the flight, which is
    // the skx params for our message sizes).
    buf[n - 200] ^= 0x01;
    ce.consume(n);
    h.wires.serverEnd().write(buf.data(), n);

    EXPECT_THROW(
        {
            for (int i = 0; i < 20; ++i) {
                client.advance();
                server.advance();
            }
        },
        ssl::SslError);
}

TEST(DheHandshake, DheSessionResumes)
{
    ssl::SessionCache cache;
    DheHarness h;
    h.scfg.sessionCache = &cache;
    ssl::SslServer server1(h.scfg, h.wires.serverEnd());
    ssl::SslClient client1(h.ccfg, h.wires.clientEnd());
    runLockstep(client1, server1);

    DheHarness h2;
    h2.scfg.sessionCache = &cache;
    h2.ccfg.resumeSession = client1.session();
    ssl::SslServer server2(h2.scfg, h2.wires.serverEnd());
    ssl::SslClient client2(h2.ccfg, h2.wires.clientEnd());
    runLockstep(client2, server2);
    EXPECT_TRUE(client2.resumed());
    EXPECT_TRUE(server2.resumed());
}

TEST(DheHandshake, KxProbesFire)
{
    perf::PerfContext ctx;
    DheHarness h;
    std::unique_ptr<ssl::SslServer> server;
    {
        perf::ContextScope scope(&ctx);
        server = std::make_unique<ssl::SslServer>(h.scfg,
                                                  h.wires.serverEnd());
    }
    ssl::SslClient client(h.ccfg, h.wires.clientEnd());
    while (!client.handshakeDone() || !server->handshakeDone()) {
        bool progress = client.advance();
        {
            perf::ContextScope scope(&ctx);
            progress |= server->advance();
        }
        ASSERT_TRUE(progress);
    }
    EXPECT_TRUE(ctx.counters().count("step3b_send_server_kx"));
    EXPECT_TRUE(ctx.counters().count("dh_generate_key"));
    EXPECT_TRUE(ctx.counters().count("dh_compute_key"));
    EXPECT_TRUE(ctx.counters().count("rsa_private_encryption"));
    // No RSA decryption happens on the DHE path.
    EXPECT_FALSE(ctx.counters().count("rsa_private_decryption"));
}

} // anonymous namespace
