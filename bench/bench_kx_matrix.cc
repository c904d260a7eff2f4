/**
 * @file
 * Layered key-exchange cost matrix over the pluggable KX seam
 * (ssl/kx.hh): for each key-exchange method — RSA key transport,
 * DHE_RSA, and session resumption — one server-side handshake plus a
 * small bulk exchange is profiled with the fine-grained perf-probe
 * tree, and the cycles are attributed to layers:
 *
 *   record           mac + pri_encryption + pri_decryption (the
 *                    symmetric record path)
 *   kx_crypto        rsa_private_decryption + rsa_private_encryption
 *                    (the SKX signature) + dh_generate_key +
 *                    dh_compute_key
 *   handshake_other  everything else the server spends in SSL code
 *   bignum_exclusive exclusive cycles inside the BN_* / bn_* kernels —
 *                    a second attribution axis showing how much of the
 *                    kx crypto bottoms out in bignum arithmetic
 *
 * This is the paper's Table 2/3 anatomy generalized across suites: the
 * matrix makes the inversion visible (RSA's cost is all kx_crypto, a
 * resumed handshake's is none). Each cell also proves the refactor
 * honest: a full handshake through the async CryptoPool path must be
 * wire-identical, byte for byte in both directions, to the synchronous
 * path under the same deterministic randomness.
 *
 * Results go to BENCH_kx_matrix.json (schema in EXPERIMENTS.md) and a
 * human-readable table on stdout. The exit code gates correctness:
 * every cell wire-identical, DHE actually exponentiates, resumption
 * does no key-exchange crypto.
 *
 *   ./bench_kx_matrix [--smoke]
 */

#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common.hh"
#include "obs/metrics.hh"
#include "perf/probe.hh"
#include "perf/report.hh"
#include "serve/cryptopool.hh"
#include "ssl/client.hh"
#include "ssl/server.hh"

using namespace ssla;
using namespace ssla::bench;
using perf::TablePrinter;

namespace
{

/** One matrix cell: a key-exchange method and how to drive it. */
struct Cell
{
    const char *kx;             ///< "rsa" / "dhe_rsa" / "resume"
    ssl::CipherSuiteId suite;
    bool resumed;
};

const Cell cells[] = {
    {"rsa", ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA, false},
    {"dhe_rsa", ssl::CipherSuiteId::DHE_RSA_3DES_EDE_CBC_SHA, false},
    {"resume", ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA, true},
};

/** The server certificate/key fixture shared by all cells. */
struct Identity
{
    const crypto::RsaKeyPair *key;
    pki::Certificate cert;
};

Identity
makeIdentity()
{
    Identity id;
    id.key = &benchKey(1024);
    pki::CertificateInfo info;
    info.serial = 1;
    info.issuer = "Bench CA";
    info.subject = "bench.server";
    info.notBefore = 0;
    info.notAfter = ~uint64_t(0);
    info.publicKey = id.key->pub;
    id.cert = pki::Certificate::issue(info, *id.key->priv);
    return id;
}

// ---------------------------------------------------------------------
// Wire-identity capture

/** Relay bytes between two BioPairs, recording both directions. */
struct RecordingRelay
{
    ssl::BioPair clientSide;
    ssl::BioPair serverSide;
    Bytes clientToServer;
    Bytes serverToClient;

    bool
    pump()
    {
        bool moved = false;
        ssl::BioEndpoint fromClient = clientSide.serverEnd();
        ssl::BioEndpoint fromServer = serverSide.clientEnd();
        Bytes buf(4096);
        while (size_t n = fromClient.read(buf.data(), buf.size())) {
            clientToServer.insert(clientToServer.end(), buf.begin(),
                                  buf.begin() + n);
            serverSide.clientEnd().write(buf.data(), n);
            moved = true;
        }
        while (size_t n = fromServer.read(buf.data(), buf.size())) {
            serverToClient.insert(serverToClient.end(), buf.begin(),
                                  buf.begin() + n);
            clientSide.serverEnd().write(buf.data(), n);
            moved = true;
        }
        return moved;
    }
};

struct Transcript
{
    Bytes clientToServer;
    Bytes serverToClient;

    bool
    operator==(const Transcript &o) const
    {
        return clientToServer == o.clientToServer &&
               serverToClient == o.serverToClient;
    }
};

/**
 * Run the cell's handshake sequence (full, or full-then-resumed) with
 * deterministic randomness through @p provider and log every wire
 * byte. Null provider runs the synchronous in-handshake crypto; a
 * PooledProvider exercises the parked/async paths. The random draw
 * sequence is identical either way, so the transcripts must match.
 */
Transcript
captureTranscript(const Cell &cell, const Identity &id,
                  crypto::Provider *provider)
{
    ssl::SessionCache cache(16);
    crypto::RandomPool clientPool(benchPayload(16, 0xc11e));
    crypto::RandomPool serverPool(benchPayload(16, 0x5e12));

    Transcript t;
    std::optional<ssl::Session> resume;
    const int handshakes = cell.resumed ? 2 : 1;
    for (int h = 0; h < handshakes; ++h) {
        RecordingRelay relay;

        ssl::ServerConfig scfg;
        scfg.certificate = id.cert;
        scfg.privateKey = id.key->priv;
        scfg.suites = {cell.suite};
        scfg.sessionCache = &cache;
        scfg.randomPool = &serverPool;
        scfg.provider = provider;
        ssl::SslServer server(std::move(scfg),
                              relay.serverSide.serverEnd());

        ssl::ClientConfig ccfg;
        ccfg.suites = {cell.suite};
        ccfg.randomPool = &clientPool;
        if (h == 1)
            ccfg.resumeSession = resume;
        ssl::SslClient client(std::move(ccfg),
                              relay.clientSide.clientEnd());

        bool sent = false;
        for (;;) {
            bool progress = client.advance();
            progress |= server.advance();
            progress |= relay.pump();
            if (client.handshakeDone() && server.handshakeDone() &&
                !sent) {
                client.writeApplicationData(
                    benchPayload(256, 0xda7a));
                sent = true;
                progress = true;
            }
            if (sent && server.readApplicationData())
                break;
            if (!progress) {
                if (server.waitingOnCrypto()) {
                    std::this_thread::yield();
                    continue;
                }
                // The job can resolve between advance() and the check
                // above: the next advance() consumes it.
                if (server.advance())
                    continue;
                throw std::runtime_error("kx matrix: relay deadlock");
            }
        }
        if (h == 1 && !server.resumed())
            throw std::runtime_error(
                "kx matrix: resume cell did not resume");

        resume = client.session();
        append(t.clientToServer, relay.clientToServer);
        append(t.serverToClient, relay.serverToClient);
    }
    return t;
}

// ---------------------------------------------------------------------
// Layered breakdown

struct Breakdown
{
    uint64_t runs = 0;
    double totalKc = 0;    ///< all server-side cycles
    double kxKc = 0;       ///< key-exchange asymmetric crypto
    double recordKc = 0;   ///< symmetric record path (mac + cipher)
    double otherKc = 0;    ///< handshake logic outside the above
    double bignumKc = 0;   ///< exclusive cycles in BN_*/bn_* kernels
    double dhKc = 0;       ///< DH share of kxKc (cell sanity gate)
    double hsP50Us = 0;    ///< handshake latency percentiles from the
    double hsP99Us = 0;    ///< obs histogram, microseconds
};

/**
 * Profile @p runs handshakes (plus a discarded warm-up that also
 * seeds the session cache for the resumed cell) with a fine-grained
 * probe context scoped to the server side only, then attribute the
 * cycles to layers.
 */
Breakdown
profile(const Cell &cell, const Identity &id, int runs)
{
    crypto::Provider &provider = crypto::defaultProvider();
    ssl::SessionCache cache(16);
    crypto::RandomPool pool(
        benchPayload(16, 0xbead ^ static_cast<uint64_t>(cell.suite) ^
                             (cell.resumed ? 0x1000000 : 0)));

    obs::MetricsRegistry reg;
    obs::Histogram hist = reg.histogram("kx.handshake_cycles");

    perf::PerfContext ctx(/*fine_grained=*/true);
    uint64_t server_cycles = 0;
    std::optional<ssl::Session> resume;

    const Bytes upload = benchPayload(2048, 0x0b07);
    const Bytes page = benchPayload(8192, 0x0b08);

    for (int i = 0; i < runs + 1; ++i) {
        if (i == 1) { // discard the warm-up run
            ctx.clear();
            server_cycles = 0;
        }
        ssl::BioPair wires;

        ssl::ServerConfig scfg;
        scfg.certificate = id.cert;
        scfg.privateKey = id.key->priv;
        scfg.suites = {cell.suite};
        scfg.sessionCache = &cache;
        scfg.randomPool = &pool;
        scfg.provider = &provider;

        ssl::ClientConfig ccfg;
        ccfg.suites = {cell.suite};
        ccfg.randomPool = &pool;
        ccfg.provider = &provider;
        if (cell.resumed && resume)
            ccfg.resumeSession = resume;

        uint64_t hs_cycles = 0;
        std::unique_ptr<ssl::SslServer> server;
        {
            perf::ContextScope scope(&ctx);
            uint64_t t0 = rdcycles();
            server = std::make_unique<ssl::SslServer>(
                std::move(scfg), wires.serverEnd());
            uint64_t dt = rdcycles() - t0;
            server_cycles += dt;
            hs_cycles += dt;
        }
        ssl::SslClient client(std::move(ccfg), wires.clientEnd());

        while (!client.handshakeDone() || !server->handshakeDone()) {
            bool progress = client.advance();
            {
                perf::ContextScope scope(&ctx);
                uint64_t t0 = rdcycles();
                progress |= server->advance();
                uint64_t dt = rdcycles() - t0;
                server_cycles += dt;
                hs_cycles += dt;
            }
            if (!progress)
                throw std::runtime_error("kx matrix: deadlock");
        }
        if (i > 0)
            hist.record(hs_cycles);
        if (cell.resumed && i > 0 && !server->resumed())
            throw std::runtime_error(
                "kx matrix: resume cell did not resume");

        // A small bulk exchange so the record layer does measurable
        // symmetric work on top of the Finished records.
        client.writeApplicationData(upload);
        {
            perf::ContextScope scope(&ctx);
            uint64_t t0 = rdcycles();
            if (!server->readApplicationData())
                throw std::runtime_error("kx matrix: upload lost");
            server->writeApplicationData(page);
            server_cycles += rdcycles() - t0;
        }
        if (!client.readApplicationData())
            throw std::runtime_error("kx matrix: page lost");

        resume = client.session();
    }

    Breakdown b;
    b.runs = static_cast<uint64_t>(runs);
    auto kc = [&](std::vector<std::string> names) {
        return static_cast<double>(ctx.cyclesFor(names)) / runs / 1e3;
    };
    b.totalKc = static_cast<double>(server_cycles) / runs / 1e3;
    b.kxKc = kc({"rsa_private_decryption", "rsa_private_encryption",
                 "dh_generate_key", "dh_compute_key"});
    b.dhKc = kc({"dh_generate_key", "dh_compute_key"});
    b.recordKc = kc({"mac", "pri_encryption", "pri_decryption"});
    b.otherKc = std::max(0.0, b.totalKc - b.kxKc - b.recordKc);

    uint64_t bn_exclusive = 0;
    for (const auto &[name, counter] : ctx.counters())
        if (name.rfind("BN_", 0) == 0 || name.rfind("bn_", 0) == 0)
            bn_exclusive += counter.exclusive;
    b.bignumKc = static_cast<double>(bn_exclusive) / runs / 1e3;

    obs::HistogramSnapshot hs =
        reg.snapshot().histogram("kx.handshake_cycles");
    b.hsP50Us = hs.percentile(50) / cycleHz() * 1e6;
    b.hsP99Us = hs.percentile(99) / cycleHz() * 1e6;
    return b;
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
    const int runs = smoke ? 6 : 24;
    Identity id = makeIdentity();

    struct CellResult
    {
        const Cell *cell;
        bool wireIdentical;
        Breakdown b;
    };
    std::vector<CellResult> results;

    for (const Cell &cell : cells) {
        // Wire identity: synchronous vs pool-offloaded crypto under
        // the same seeds. This covers the async decrypt (RSA cell)
        // and the async SKX sign (DHE cell).
        Transcript sync = captureTranscript(cell, id, nullptr);
        serve::CryptoPool cryptoPool(2);
        serve::PooledProvider pooled(cryptoPool);
        Transcript offload = captureTranscript(cell, id, &pooled);
        const bool identical = !sync.clientToServer.empty() &&
                               sync == offload;

        results.push_back({&cell, identical, profile(cell, id, runs)});
    }

    // Machine-readable matrix.
    std::FILE *out = std::fopen("BENCH_kx_matrix.json", "w");
    if (!out) {
        std::fprintf(stderr, "cannot open BENCH_kx_matrix.json\n");
        return 1;
    }
    {
        JsonWriter j(out);
        j.beginObject();
        j.field("bench", "kx_matrix").field("smoke", smoke);
        j.field("rsa_bits", uint64_t(1024));
        j.field("cycle_hz", cycleHz(), 0);
        j.beginArray("cells");
        for (const CellResult &r : results) {
            j.beginObject();
            j.field("kx", r.cell->kx);
            j.field("suite",
                    ssl::cipherSuite(r.cell->suite).name);
            j.field("resumed", r.cell->resumed);
            j.field("wire_identical", r.wireIdentical);
            j.field("runs", r.b.runs);
            j.beginObject("layers_kc");
            j.field("record", r.b.recordKc, 1);
            j.field("kx_crypto", r.b.kxKc, 1);
            j.field("handshake_other", r.b.otherKc, 1);
            j.field("total", r.b.totalKc, 1);
            j.field("bignum_exclusive", r.b.bignumKc, 1);
            j.endObject();
            j.field("hs_p50_us", r.b.hsP50Us, 1);
            j.field("hs_p99_us", r.b.hsP99Us, 1);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    std::fclose(out);

    // Human-readable table.
    TablePrinter table("Key-exchange cost matrix, server side "
                       "(kcycles per handshake + 10KB exchange, "
                       "RSA-1024 / Oakley group 2)");
    table.setHeader({"layer", "rsa", "dhe_rsa", "resume"});
    auto row = [&](const char *name, double Breakdown::*field) {
        std::vector<std::string> cols = {name};
        for (const CellResult &r : results)
            cols.push_back(perf::fmtF(r.b.*field, 1));
        table.addRow(cols);
    };
    row("record", &Breakdown::recordKc);
    row("kx_crypto", &Breakdown::kxKc);
    row("handshake_other", &Breakdown::otherKc);
    row("total", &Breakdown::totalKc);
    row("bignum (exclusive)", &Breakdown::bignumKc);
    table.print();

    bool ok = true;
    for (const CellResult &r : results) {
        if (!r.wireIdentical) {
            std::fprintf(stderr,
                         "FAIL: %s transcript differs between sync "
                         "and offloaded crypto\n",
                         r.cell->kx);
            ok = false;
        }
    }
    const Breakdown &rsa = results[0].b;
    const Breakdown &dhe = results[1].b;
    const Breakdown &res = results[2].b;
    if (dhe.dhKc <= 0) {
        std::fprintf(stderr, "FAIL: DHE cell ran no DH crypto\n");
        ok = false;
    }
    if (res.kxKc > rsa.kxKc * 0.01) {
        std::fprintf(stderr,
                     "FAIL: resumed cell spent %.1f kc in kx crypto "
                     "(expected ~0)\n",
                     res.kxKc);
        ok = false;
    }
    std::printf("\n%s: wire-identical transcripts across sync/async "
                "for all %zu cells; resumption skips the %.0f kc of "
                "kx crypto RSA pays (DHE pays %.0f kc).\n",
                ok ? "OK" : "FAILED", results.size(), rsa.kxKc,
                dhe.kxKc);
    return ok ? 0 : 1;
}
