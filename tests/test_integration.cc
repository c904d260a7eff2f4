/**
 * @file
 * Cross-module integration tests: many sequential secure connections,
 * suite interop matrix, handshake anatomy probe coverage, and an
 * end-to-end "bank transaction" style scenario.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "perf/probe.hh"
#include "ssl/client.hh"
#include "ssl/server.hh"
#include "util/bytes.hh"
#include "util/rng.hh"

#include "testkeys.hh"

namespace
{

using namespace ssla;
using namespace ssla::ssl;

ServerConfig
serverConfig()
{
    ServerConfig cfg;
    cfg.certificate = test::testServerCert();
    cfg.privateKey = test::testKey1024().priv;
    return cfg;
}

TEST(Integration, ManySequentialConnections)
{
    ServerConfig scfg = serverConfig();
    SessionCache cache;
    scfg.sessionCache = &cache;
    Session last;

    for (int i = 0; i < 10; ++i) {
        BioPair wires;
        SslServer server(scfg, wires.serverEnd());
        ClientConfig ccfg;
        if (i % 2 == 1)
            ccfg.resumeSession = last; // resume every other connection
        SslClient client(ccfg, wires.clientEnd());
        runLockstep(client, server);
        EXPECT_EQ(client.resumed(), i % 2 == 1) << "conn " << i;

        Bytes msg = toBytes("request " + std::to_string(i));
        client.writeApplicationData(msg);
        auto got = server.readApplicationData();
        ASSERT_TRUE(got);
        EXPECT_EQ(*got, msg);
        last = client.session();
    }
    EXPECT_GE(cache.hits(), 4u);
}

TEST(Integration, SuiteInteropMatrix)
{
    // A client offering everything connects to servers that each
    // insist on one suite.
    for (CipherSuiteId id : allCipherSuites()) {
        ServerConfig scfg = serverConfig();
        scfg.suites = {id};
        BioPair wires;
        SslServer server(scfg, wires.serverEnd());
        ClientConfig ccfg; // offers all suites
        SslClient client(ccfg, wires.clientEnd());
        runLockstep(client, server);
        EXPECT_EQ(client.suite().id, id);

        client.writeApplicationData(toBytes("interop"));
        auto got = server.readApplicationData();
        ASSERT_TRUE(got);
        EXPECT_EQ(toString(*got), "interop");
    }
}

TEST(Integration, HandshakeAnatomyProbesFire)
{
    // The paper's Table 2 instrumentation: a full handshake must hit
    // every step probe and the expected crypto functions.
    perf::PerfContext ctx;
    ServerConfig scfg = serverConfig();
    BioPair wires;

    std::unique_ptr<SslServer> server;
    {
        perf::ContextScope scope(&ctx);
        server = std::make_unique<SslServer>(scfg, wires.serverEnd());
    }
    ClientConfig ccfg;
    SslClient client(ccfg, wires.clientEnd());

    while (!client.handshakeDone() || !server->handshakeDone()) {
        bool progress = client.advance();
        {
            perf::ContextScope scope(&ctx);
            progress |= server->advance();
        }
        ASSERT_TRUE(progress);
    }

    const char *expected[] = {
        "step0_init", "step1_get_client_hello",
        "step2_send_server_hello", "step3_send_server_cert",
        "step4_send_server_done", "step5_get_client_kx",
        "step6_get_finished", "step7_send_cipher_spec",
        "step8_send_finished", "step9_flush",
        "rsa_private_decryption", "gen_master_secret", "gen_key_block",
        "final_finish_mac", "finish_mac", "init_finished_mac",
        "rand_pseudo_bytes", "mac", "pri_decryption", "pri_encryption",
        "BIO_flush",
    };
    for (const char *name : expected) {
        EXPECT_TRUE(ctx.counters().count(name))
            << "missing probe: " << name;
    }

    // RSA must dominate the handshake (Table 3's 90.4% claim).
    uint64_t rsa = ctx.cyclesFor("rsa_private_decryption");
    uint64_t total = ctx.cyclesFor(
        {"step0_init", "step1_get_client_hello",
         "step2_send_server_hello", "step3_send_server_cert",
         "step4_send_server_done", "step5_get_client_kx",
         "step6_get_finished", "step7_send_cipher_spec",
         "step8_send_finished", "step9_flush"});
    EXPECT_GT(rsa, total / 2);
}

TEST(Integration, FineGrainedBnProfile)
{
    // Table 8: with fine probes on, RSA decryption time should be
    // attributed mostly to bn_mul_add_words. One preempted sample can
    // flip a cycle comparison, so compare per-function minima of the
    // exclusive cycles over several decrypts.
    const auto &kp = test::testKey1024();
    crypto::RandomPool pool(toBytes("bn-profile"));
    Bytes cipher =
        crypto::rsaPublicEncrypt(kp.pub, Bytes(48, 7), pool);
    std::map<std::string, uint64_t> minExclusive;
    uint64_t total = UINT64_MAX;
    for (int run = 0; run < 5; ++run) {
        perf::PerfContext ctx(true);
        {
            perf::ContextScope scope(&ctx);
            crypto::rsaPrivateDecrypt(*kp.priv, cipher);
        }
        total = std::min(total, ctx.totalExclusive());
        for (const auto &[name, counter] : ctx.counters()) {
            auto it =
                minExclusive.try_emplace(name, counter.exclusive).first;
            it->second = std::min(it->second, counter.exclusive);
        }
    }
    ASSERT_TRUE(minExclusive.count("bn_mul_add_words"));
    ASSERT_TRUE(minExclusive.count("BN_from_montgomery"));
    const uint64_t muladd = minExclusive.at("bn_mul_add_words");
    // The multiply kernel is the single largest consumer.
    for (const auto &[name, exclusive] : minExclusive) {
        if (name != "bn_mul_add_words") {
            EXPECT_GE(muladd, exclusive) << name;
        }
    }
    EXPECT_GT(static_cast<double>(muladd), 0.25 * total);
}

TEST(Integration, BankTransactionScenario)
{
    // Small request/response pairs over one session — the "banking
    // transaction" workload the paper cites as handshake-dominated.
    ServerConfig scfg = serverConfig();
    BioPair wires;
    SslServer server(scfg, wires.serverEnd());
    ClientConfig ccfg;
    ccfg.trustedIssuer = &test::testKey1024().pub;
    SslClient client(ccfg, wires.clientEnd());
    runLockstep(client, server);

    for (int i = 0; i < 50; ++i) {
        Bytes req = toBytes("BALANCE acct=" + std::to_string(i));
        client.writeApplicationData(req);
        auto server_got = server.readApplicationData();
        ASSERT_TRUE(server_got);
        Bytes resp = toBytes("OK " + std::to_string(i * 100));
        server.writeApplicationData(resp);
        auto client_got = client.readApplicationData();
        ASSERT_TRUE(client_got);
        EXPECT_EQ(*client_got, resp);
    }
    client.close();
    server.close();
    EXPECT_FALSE(server.readApplicationData());
    EXPECT_FALSE(client.readApplicationData());
    EXPECT_TRUE(server.peerClosed());
    EXPECT_TRUE(client.peerClosed());
}

TEST(Integration, BulkTransferScenario)
{
    // B2B-style bulk exchange: the private-key encryption should now
    // dwarf everything else in per-record cost terms.
    ServerConfig scfg = serverConfig();
    BioPair wires;
    SslServer server(scfg, wires.serverEnd());
    SslClient client(ClientConfig{}, wires.clientEnd());
    runLockstep(client, server);

    Xoshiro256 rng(77);
    Bytes blob = rng.bytes(256 * 1024);
    server.writeApplicationData(blob);
    Bytes got;
    while (got.size() < blob.size()) {
        auto chunk = client.readApplicationData();
        ASSERT_TRUE(chunk);
        append(got, *chunk);
    }
    EXPECT_EQ(got, blob);
}

TEST(Integration, HandshakeSurvivesTrickleDelivery)
{
    // Relay every wire byte through one-byte writes: the record layer
    // and handshake reassembly must make progress incrementally.
    ServerConfig scfg = serverConfig();
    BioPair client_side; // client <-> relay
    BioPair server_side; // relay <-> server
    SslClient client(ClientConfig{}, client_side.clientEnd());
    SslServer server(scfg, server_side.serverEnd());

    // The relay endpoints: read what each party sent, forward in
    // 1..3-byte dribbles to the other.
    BioEndpoint from_client = client_side.serverEnd();
    BioEndpoint from_server = server_side.clientEnd();
    Xoshiro256 rng(31);

    auto pump = [&](BioEndpoint &src, BioEndpoint &dst) {
        uint8_t buf[4096];
        size_t n = src.read(buf, sizeof(buf));
        size_t off = 0;
        while (off < n) {
            size_t piece = std::min<size_t>(1 + rng.nextBelow(3),
                                            n - off);
            dst.write(buf + off, piece);
            off += piece;
        }
        return n > 0;
    };

    for (int i = 0; i < 20000; ++i) {
        bool moved = client.advance();
        moved |= pump(from_client, from_server);
        moved |= server.advance();
        moved |= pump(from_server, from_client);
        if (client.handshakeDone() && server.handshakeDone())
            break;
        ASSERT_TRUE(moved) << "trickle deadlock at iteration " << i;
    }
    EXPECT_TRUE(client.handshakeDone());
    EXPECT_TRUE(server.handshakeDone());

    client.writeApplicationData(toBytes("dribbled"));
    while (pump(from_client, from_server)) {
    }
    auto got = server.readApplicationData();
    ASSERT_TRUE(got);
    EXPECT_EQ(toString(*got), "dribbled");
}

TEST(Integration, IndependentConnectionsDontShareState)
{
    ServerConfig scfg = serverConfig();
    BioPair w1, w2;
    SslServer s1(scfg, w1.serverEnd());
    SslServer s2(scfg, w2.serverEnd());
    SslClient c1(ClientConfig{}, w1.clientEnd());
    SslClient c2(ClientConfig{}, w2.clientEnd());
    runLockstep(c1, s1);
    runLockstep(c2, s2);

    EXPECT_NE(c1.session().id, c2.session().id);
    EXPECT_NE(c1.session().masterSecret, c2.session().masterSecret);

    c1.writeApplicationData(toBytes("one"));
    c2.writeApplicationData(toBytes("two"));
    EXPECT_EQ(toString(*s1.readApplicationData()), "one");
    EXPECT_EQ(toString(*s2.readApplicationData()), "two");
}

} // anonymous namespace
