#include "web/httpsim.hh"

#include "obs/export.hh"
#include "perf/probe.hh"
#include "util/rng.hh"

namespace ssla::web
{

void
TransactionStats::merge(const TransactionStats &other)
{
    sslTotal += other.sslTotal;
    cryptoTotal += other.cryptoTotal;
    cryptoPublic += other.cryptoPublic;
    cryptoPrivate += other.cryptoPrivate;
    cryptoHash += other.cryptoHash;
    cryptoOther += other.cryptoOther;
    kernelCycles += other.kernelCycles;
    httpdCycles += other.httpdCycles;
    otherCycles += other.otherCycles;
    wireBytes += other.wireBytes;
    packets += other.packets;
    transactions += other.transactions;
    resumedHandshakes += other.resumedHandshakes;
}

double
TransactionStats::total() const
{
    return static_cast<double>(sslTotal) + kernelCycles + httpdCycles +
           otherCycles;
}

struct WebSimulator::Impl
{
    WebSimConfig config;
    crypto::RsaKeyPair serverKey;
    pki::Certificate certificate;
    ssl::SessionCache sessionCache{256};
    crypto::RandomPool pool;
    ssl::Session lastSession;

    explicit Impl(const WebSimConfig &cfg)
        : config(cfg), pool(Bytes{0x42})
    {
        Xoshiro256 rng(cfg.seed);
        bn::RngFunc rf = [&rng](uint8_t *out, size_t len) {
            rng.fill(out, len);
        };
        // bn32: the web simulator reproduces the paper's Table 1
        // anatomy, which is anchored to the 32-bit-limb core.
        serverKey = crypto::rsaGenerateKey(cfg.rsaBits, rf);

        pki::CertificateInfo info;
        info.serial = 1;
        info.issuer = "SSL Anatomy Test CA";
        info.subject = "www.sslanatomy.test";
        info.notBefore = 0;
        info.notAfter = ~uint64_t(0);
        info.publicKey = serverKey.pub;
        certificate = pki::Certificate::issue(info, *serverKey.priv);
    }
};

WebSimulator::WebSimulator(const WebSimConfig &config)
    : impl_(std::make_unique<Impl>(config))
{
}

WebSimulator::~WebSimulator() = default;

const crypto::RsaPublicKey &
WebSimulator::serverPublicKey() const
{
    return impl_->serverKey.pub;
}

namespace
{

/** Crypto probe names per Figure 2 / Table 3 category (server side). */
const std::vector<std::string> publicKeyProbes = {
    "rsa_private_decryption",
};
const std::vector<std::string> privateKeyProbes = {
    "pri_encryption",
    "pri_decryption",
};
const std::vector<std::string> hashProbes = {
    "mac",           "finish_mac",      "init_finished_mac",
    "final_finish_mac", "gen_master_secret", "gen_key_block",
    "cert_verify_mac",
};
const std::vector<std::string> otherCryptoProbes = {
    "rand_pseudo_bytes",
    "x509_issue",
};

/**
 * Route one parsed request: /metrics serves the Prometheus text
 * exposition of the configured registry, anything else serves
 * @p file_size bytes of page data.
 */
HttpResponse
serveRequest(const WebSimConfig &config, const HttpRequest &request,
             size_t file_size)
{
    HttpResponse resp;
    resp.headers["Server"] = "ssl-anatomy-sim/1.0";
    if (request.path == "/metrics") {
        obs::MetricsRegistry &reg =
            config.metricsRegistry ? *config.metricsRegistry
                                   : obs::MetricsRegistry::global();
        const std::string text = obs::prometheusText(reg.snapshot());
        resp.headers["Content-Type"] = "text/plain; version=0.0.4";
        resp.body.assign(text.begin(), text.end());
    } else {
        resp.body.assign(file_size, 'a');
    }
    return resp;
}

} // anonymous namespace

TransactionStats
WebSimulator::runTransaction(size_t file_size, bool resume_session)
{
    return runSession(1, file_size, resume_session);
}

HttpResponse
WebSimulator::fetch(const std::string &path, size_t file_size)
{
    Impl &im = *impl_;
    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = im.certificate;
    scfg.privateKey = im.serverKey.priv;
    scfg.suites = {im.config.suite};
    scfg.sessionCache = &im.sessionCache;
    scfg.randomPool = &im.pool;

    ssl::ClientConfig ccfg;
    ccfg.suites = {im.config.suite};
    ccfg.randomPool = &im.pool;

    ssl::SslServer server(scfg, wires.serverEnd());
    ssl::SslClient client(ccfg, wires.clientEnd());
    ssl::runLockstep(client, server);

    HttpRequest req;
    req.path = path;
    req.headers["Host"] = "www.sslanatomy.test";
    client.writeApplicationData(req.encode());

    auto data = server.readApplicationData();
    if (!data)
        throw std::runtime_error("web sim: request lost");
    HttpResponse resp = serveRequest(im.config,
                                     HttpRequest::parse(*data),
                                     file_size);
    server.writeApplicationData(resp.encode());
    server.close();

    // Client side: drain until the response parses completely.
    Bytes response_wire;
    HttpResponse parsed;
    for (;;) {
        auto chunk = client.readApplicationData();
        if (chunk)
            append(response_wire, *chunk);
        try {
            parsed = HttpResponse::parse(response_wire);
            break;
        } catch (const std::runtime_error &) {
            if (!chunk)
                throw; // transport drained, response still short
        }
    }
    client.close();
    server.readApplicationData(); // observe the close_notify
    return parsed;
}

TransactionStats
WebSimulator::runSession(size_t requests, size_t file_size,
                         bool resume_session)
{
    Impl &im = *impl_;
    TransactionStats stats;
    stats.transactions = requests;

    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = im.certificate;
    scfg.privateKey = im.serverKey.priv;
    scfg.suites = {im.config.suite};
    scfg.sessionCache = &im.sessionCache;
    scfg.randomPool = &im.pool;

    ssl::ClientConfig ccfg;
    ccfg.suites = {im.config.suite};
    ccfg.randomPool = &im.pool;
    if (resume_session && im.lastSession.valid())
        ccfg.resumeSession = im.lastSession;

    perf::PerfContext ctx;
    uint64_t server_cycles = 0;

    // Server construction is the paper's handshake step 0.
    std::unique_ptr<ssl::SslServer> server;
    {
        perf::ContextScope scope(&ctx);
        uint64_t t0 = rdcycles();
        server = std::make_unique<ssl::SslServer>(scfg,
                                                  wires.serverEnd());
        server_cycles += rdcycles() - t0;
    }
    ssl::SslClient client(ccfg, wires.clientEnd());

    // Lockstep handshake; only server work runs under the context.
    while (!client.handshakeDone() || !server->handshakeDone()) {
        bool progress = client.advance();
        {
            perf::ContextScope scope(&ctx);
            uint64_t t0 = rdcycles();
            progress |= server->advance();
            server_cycles += rdcycles() - t0;
        }
        if (!progress)
            throw std::runtime_error("web sim: handshake deadlock");
    }
    if (server->resumed())
        stats.resumedHandshakes = 1;

    // Keep-alive request/response exchanges over one connection.
    for (size_t r = 0; r < requests; ++r) {
        HttpRequest req;
        req.path = "/index.html";
        req.headers["Host"] = "www.sslanatomy.test";
        client.writeApplicationData(req.encode());

        // Server: read request, serve the page.
        {
            perf::ContextScope scope(&ctx);
            uint64_t t0 = rdcycles();
            auto data = server->readApplicationData();
            if (!data)
                throw std::runtime_error("web sim: request lost");
            HttpRequest parsed = HttpRequest::parse(*data);
            HttpResponse resp = serveRequest(im.config, parsed,
                                             file_size);
            server->writeApplicationData(resp.encode());
            if (r + 1 == requests)
                server->close();
            server_cycles += rdcycles() - t0;
        }

        // Client: drain records until the response parses completely.
        Bytes response_wire;
        HttpResponse resp;
        for (;;) {
            auto chunk = client.readApplicationData();
            if (chunk)
                append(response_wire, *chunk);
            try {
                resp = HttpResponse::parse(response_wire);
                break;
            } catch (const std::runtime_error &) {
                if (!chunk)
                    throw; // transport drained, response still short
            }
        }
        if (resp.body.size() != file_size)
            throw std::runtime_error("web sim: short response");
    }
    client.close();
    {
        perf::ContextScope scope(&ctx);
        uint64_t t0 = rdcycles();
        server->readApplicationData(); // observe the close_notify
        server_cycles += rdcycles() - t0;
    }

    im.lastSession = client.session();

    // Measured accounting.
    stats.sslTotal = server_cycles;
    stats.cryptoPublic = ctx.cyclesFor(publicKeyProbes);
    stats.cryptoPrivate = ctx.cyclesFor(privateKeyProbes);
    stats.cryptoHash = ctx.cyclesFor(hashProbes);
    stats.cryptoOther = ctx.cyclesFor(otherCryptoProbes);
    stats.cryptoTotal = stats.cryptoPublic + stats.cryptoPrivate +
                        stats.cryptoHash + stats.cryptoOther;

    // Modeled accounting.
    TrafficShape traffic;
    traffic.wireBytes =
        wires.clientBytesSent() + wires.serverBytesSent();
    traffic.packets = estimatePackets(traffic.wireBytes,
                                      im.config.model);
    traffic.connections = 1;
    traffic.requests = requests;
    ModeledCycles modeled = modelNonSslCycles(traffic, im.config.model);
    stats.kernelCycles = modeled.kernel;
    stats.httpdCycles = modeled.httpd;
    stats.otherCycles = modeled.other;
    stats.wireBytes = traffic.wireBytes;
    stats.packets = traffic.packets;
    return stats;
}

TransactionStats
WebSimulator::runTunnel(size_t total_bytes, size_t chunk_bytes)
{
    Impl &im = *impl_;
    if (chunk_bytes == 0)
        throw std::invalid_argument("web sim: chunk_bytes == 0");
    TransactionStats stats;
    stats.transactions = 1;

    ssl::BioPair wires;

    ssl::ServerConfig scfg;
    scfg.certificate = im.certificate;
    scfg.privateKey = im.serverKey.priv;
    scfg.suites = {im.config.suite};
    scfg.sessionCache = &im.sessionCache;
    scfg.randomPool = &im.pool;

    ssl::ClientConfig ccfg;
    ccfg.suites = {im.config.suite};
    ccfg.randomPool = &im.pool;

    perf::PerfContext ctx;
    uint64_t server_cycles = 0;

    std::unique_ptr<ssl::SslServer> server;
    {
        perf::ContextScope scope(&ctx);
        uint64_t t0 = rdcycles();
        server = std::make_unique<ssl::SslServer>(scfg,
                                                  wires.serverEnd());
        server_cycles += rdcycles() - t0;
    }
    ssl::SslClient client(ccfg, wires.clientEnd());

    while (!client.handshakeDone() || !server->handshakeDone()) {
        bool progress = client.advance();
        {
            perf::ContextScope scope(&ctx);
            uint64_t t0 = rdcycles();
            progress |= server->advance();
            server_cycles += rdcycles() - t0;
        }
        if (!progress)
            throw std::runtime_error("web sim: handshake deadlock");
    }

    // Server -> client streaming: each chunk is handed down as two
    // scattered spans of one shared payload buffer (no per-chunk
    // assembly), the tunnel data plane in its zero-copy shape.
    const Bytes payload(chunk_bytes, 0xd7);
    uint64_t streamed = 0, received = 0;
    while (streamed < total_bytes || received < total_bytes) {
        if (streamed < total_bytes) {
            size_t n = std::min<uint64_t>(chunk_bytes,
                                          total_bytes - streamed);
            perf::ContextScope scope(&ctx);
            uint64_t t0 = rdcycles();
            size_t half = n / 2;
            ConstSpan iov[2] = {
                ConstSpan{payload.data(), half},
                ConstSpan{payload.data() + half, n - half}};
            server->writeApplicationData(iov, 2);
            server_cycles += rdcycles() - t0;
            streamed += n;
        }
        while (auto chunk = client.readApplicationData())
            received += chunk->size();
        if (received > total_bytes)
            throw std::runtime_error("web sim: tunnel over-delivered");
    }

    client.close();
    {
        perf::ContextScope scope(&ctx);
        uint64_t t0 = rdcycles();
        server->readApplicationData(); // observe the close_notify
        server_cycles += rdcycles() - t0;
    }

    stats.sslTotal = server_cycles;
    stats.cryptoPublic = ctx.cyclesFor(publicKeyProbes);
    stats.cryptoPrivate = ctx.cyclesFor(privateKeyProbes);
    stats.cryptoHash = ctx.cyclesFor(hashProbes);
    stats.cryptoOther = ctx.cyclesFor(otherCryptoProbes);
    stats.cryptoTotal = stats.cryptoPublic + stats.cryptoPrivate +
                        stats.cryptoHash + stats.cryptoOther;

    TrafficShape traffic;
    traffic.wireBytes =
        wires.clientBytesSent() + wires.serverBytesSent();
    traffic.packets = estimatePackets(traffic.wireBytes,
                                      im.config.model);
    traffic.connections = 1;
    traffic.requests = 1;
    ModeledCycles modeled = modelNonSslCycles(traffic, im.config.model);
    stats.kernelCycles = modeled.kernel;
    stats.httpdCycles = modeled.httpd;
    stats.otherCycles = modeled.other;
    stats.wireBytes = traffic.wireBytes;
    stats.packets = traffic.packets;
    return stats;
}

TransactionStats
WebSimulator::runWorkload(size_t count, size_t file_size,
                          double resume_fraction)
{
    TransactionStats merged;
    Xoshiro256 rng(impl_->config.seed ^ 0x9e3779b97f4a7c15ULL);
    for (size_t i = 0; i < count; ++i) {
        bool resume = i > 0 && rng.nextDouble() < resume_fraction;
        merged.merge(runTransaction(file_size, resume));
    }
    return merged;
}

} // namespace ssla::web
