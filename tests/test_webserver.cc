/**
 * @file
 * Web-simulation tests: HTTP layer, transaction accounting, the
 * kernel model and workload aggregation.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "obs/metrics.hh"
#include "web/httpsim.hh"
#include "util/bytes.hh"

namespace
{

using namespace ssla;
using namespace ssla::web;

TEST(Http, RequestRoundTrip)
{
    HttpRequest req;
    req.method = "GET";
    req.path = "/index.html";
    req.headers["Host"] = "example.test";
    HttpRequest back = HttpRequest::parse(req.encode());
    EXPECT_EQ(back.method, "GET");
    EXPECT_EQ(back.path, "/index.html");
    EXPECT_EQ(back.version, "HTTP/1.0");
    EXPECT_EQ(back.headers.at("Host"), "example.test");
}

TEST(Http, ResponseRoundTrip)
{
    HttpResponse resp;
    resp.status = 200;
    resp.body = toBytes("hello body");
    HttpResponse back = HttpResponse::parse(resp.encode());
    EXPECT_EQ(back.status, 200);
    EXPECT_EQ(back.body, resp.body);
    EXPECT_EQ(back.headers.at("Content-Length"), "10");
}

TEST(Http, MalformedRequestThrows)
{
    EXPECT_THROW(HttpRequest::parse(toBytes("nonsense")),
                 std::runtime_error);
    EXPECT_THROW(HttpRequest::parse(toBytes("GET\r\n\r\n")),
                 std::runtime_error);
}

TEST(Http, TruncatedResponseBodyThrows)
{
    HttpResponse resp;
    resp.body = Bytes(100, 'x');
    Bytes wire = resp.encode();
    wire.resize(wire.size() - 50);
    EXPECT_THROW(HttpResponse::parse(wire), std::runtime_error);
}

TEST(KernelModel, MonotoneInTraffic)
{
    KernelModelParams p;
    TrafficShape small{1000, 3, 1, 1};
    TrafficShape large{100000, 80, 1, 1};
    ModeledCycles a = modelNonSslCycles(small, p);
    ModeledCycles b = modelNonSslCycles(large, p);
    EXPECT_GT(b.kernel, a.kernel);
    EXPECT_GT(b.httpd, a.httpd);
    EXPECT_GT(b.other, a.other);
}

TEST(KernelModel, PacketEstimate)
{
    KernelModelParams p;
    EXPECT_EQ(estimatePackets(0, p), 0u);
    EXPECT_EQ(estimatePackets(1, p), 1u);
    EXPECT_EQ(estimatePackets(1460, p), 1u);
    EXPECT_EQ(estimatePackets(1461, p), 3u); // 2 data + 1 ack
}

class WebSimTest : public ::testing::Test
{
  protected:
    static WebSimulator &
    sim()
    {
        static WebSimConfig cfg = [] {
            WebSimConfig c;
            c.rsaBits = 512; // keep the suite fast
            return c;
        }();
        static WebSimulator instance(cfg);
        return instance;
    }
};

TEST_F(WebSimTest, TransactionCompletes)
{
    TransactionStats s = sim().runTransaction(1024);
    EXPECT_EQ(s.transactions, 1u);
    EXPECT_GT(s.sslTotal, 0u);
    EXPECT_GT(s.cryptoTotal, 0u);
    EXPECT_LE(s.cryptoTotal, s.sslTotal);
    EXPECT_GT(s.wireBytes, 1024u); // page + handshake + overhead
    EXPECT_GT(s.kernelCycles, 0.0);
    EXPECT_GT(s.total(), static_cast<double>(s.sslTotal));
}

TEST_F(WebSimTest, PublicKeyDominatesSmallTransfers)
{
    // Figure 2's headline: RSA dominates the crypto cost at 1 KB. One
    // preempted sample can flip a cycle comparison, so compare the
    // per-component minima over several transactions.
    TransactionStats m = sim().runTransaction(1024);
    for (int i = 1; i < 5; ++i) {
        TransactionStats s = sim().runTransaction(1024);
        m.cryptoPublic = std::min(m.cryptoPublic, s.cryptoPublic);
        m.cryptoPrivate = std::min(m.cryptoPrivate, s.cryptoPrivate);
        m.cryptoHash = std::min(m.cryptoHash, s.cryptoHash);
        m.cryptoOther = std::min(m.cryptoOther, s.cryptoOther);
    }
    uint64_t total =
        m.cryptoPublic + m.cryptoPrivate + m.cryptoHash + m.cryptoOther;
    EXPECT_GT(m.cryptoPublic, m.cryptoPrivate);
    EXPECT_GT(m.cryptoPublic, m.cryptoHash);
    EXPECT_GT(static_cast<double>(m.cryptoPublic), 0.5 * total);
}

TEST_F(WebSimTest, PrivateKeyShareGrowsWithFileSize)
{
    TransactionStats small = sim().runTransaction(1024);
    TransactionStats large = sim().runTransaction(64 * 1024);
    double small_share = static_cast<double>(small.cryptoPrivate) /
                         small.cryptoTotal;
    double large_share = static_cast<double>(large.cryptoPrivate) /
                         large.cryptoTotal;
    EXPECT_GT(large_share, small_share);
}

TEST_F(WebSimTest, ResumptionRemovesPublicKeyCost)
{
    sim().runTransaction(1024); // populate the session cache
    TransactionStats resumed = sim().runTransaction(1024, true);
    EXPECT_EQ(resumed.resumedHandshakes, 1u);
    EXPECT_EQ(resumed.cryptoPublic, 0u);
    TransactionStats full = sim().runTransaction(1024, false);
    // With the fast RSA-512 test key the abbreviated handshake saves
    // less in relative terms than at production key sizes; at 1024
    // bits the saving exceeds 5x (see bench_resumption).
    EXPECT_LT(static_cast<double>(resumed.sslTotal),
              0.9 * static_cast<double>(full.sslTotal));
}

TEST_F(WebSimTest, WorkloadAggregates)
{
    TransactionStats w = sim().runWorkload(10, 2048, 0.5);
    EXPECT_EQ(w.transactions, 10u);
    EXPECT_GT(w.resumedHandshakes, 0u);
    EXPECT_LT(w.resumedHandshakes, 10u);
    EXPECT_GT(w.sslTotal, 0u);
}

TEST_F(WebSimTest, KeepAliveSessionAmortizesHandshake)
{
    // One handshake, eight requests: per-request cost must drop well
    // below eight separate transactions.
    TransactionStats session = sim().runSession(8, 2048);
    TransactionStats separate = sim().runWorkload(8, 2048, 0.0);
    EXPECT_EQ(session.transactions, 8u);
    EXPECT_EQ(separate.transactions, 8u);
    // Only one public-key operation happened in the session.
    EXPECT_LT(static_cast<double>(session.cryptoPublic),
              0.3 * static_cast<double>(separate.cryptoPublic));
    EXPECT_LT(session.total(), separate.total());
}

TEST_F(WebSimTest, LongSessionIsBulkDominated)
{
    // The paper's B2B observation: over a long session the private
    // key (bulk) encryption dominates the public key cost.
    TransactionStats s = sim().runSession(16, 16 * 1024);
    EXPECT_GT(s.cryptoPrivate, s.cryptoPublic);
}

TEST_F(WebSimTest, TunnelStreamsAllBytesThroughGatherSends)
{
    // The streaming-tunnel workload: one handshake, then the server
    // pushes the whole volume in scattered chunk writes. A non-chunk-
    // multiple total exercises the short final gather.
    TransactionStats s = sim().runTunnel(100000, 8192);
    EXPECT_EQ(s.transactions, 1u);
    EXPECT_GT(s.wireBytes, 100000u); // payload + record + hs overhead
    EXPECT_GT(s.cryptoPrivate, s.cryptoPublic); // bulk dominated
    EXPECT_GT(s.kernelCycles, 0.0);
    EXPECT_THROW(sim().runTunnel(1024, 0), std::invalid_argument);
}

TEST(WebSim, DifferentSuitesWork)
{
    WebSimConfig cfg;
    cfg.rsaBits = 512;
    cfg.suite = ssl::CipherSuiteId::RSA_RC4_128_MD5;
    WebSimulator rc4sim(cfg);
    TransactionStats s = rc4sim.runTransaction(4096);
    EXPECT_EQ(s.transactions, 1u);
    EXPECT_GT(s.cryptoPrivate, 0u);
}

TEST(WebSim, MetricsEndpointServesPrometheusText)
{
    // A full HTTPS GET of /metrics must come back as the Prometheus
    // text exposition of the configured registry — scraped over the
    // same SSL stack the metrics describe.
    obs::MetricsRegistry reg;
    reg.counter("serve.park_events").inc(5);
    WebSimConfig cfg;
    cfg.rsaBits = 512;
    cfg.metricsRegistry = &reg;
    WebSimulator sim(cfg);

    HttpResponse resp = sim.fetch("/metrics");
    EXPECT_EQ(resp.headers.at("Content-Type"),
              "text/plain; version=0.0.4");
    const std::string body(resp.body.begin(), resp.body.end());
    EXPECT_NE(body.find("# TYPE serve_park_events_total counter"),
              std::string::npos);
    EXPECT_NE(body.find("serve_park_events_total 5"),
              std::string::npos);
}

TEST(WebSim, NonMetricsPathStillServesPages)
{
    WebSimConfig cfg;
    cfg.rsaBits = 512;
    WebSimulator sim(cfg);
    HttpResponse resp = sim.fetch("/index.html", 2048);
    EXPECT_EQ(resp.body.size(), 2048u);
}

} // anonymous namespace
