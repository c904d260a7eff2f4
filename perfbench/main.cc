/**
 * @file
 * The repository benchmark: drives serve::ServeEngine through one named
 * workload for a fixed time and prints its metrics.
 *
 *   perfbench_serve --workload full_rsa|bulk_3des|web_mix --seed N
 *                   --seconds S --trace 0|1 [--spans FILE]
 *
 * Load model: a closed loop. Two engine workers each keep two in-memory
 * connections in flight and open the next one when one finishes; the
 * engine runs a fixed number of connections per worker, so the
 * benchmark repeats engine runs ("batches") until the time is up.
 *
 * --trace 0 reports the end-to-end metrics from plain engine runs.
 * --trace 1 alternates plain and traced batches on the same inputs:
 * traced batches hand the engine the timing decorators of layers.hh,
 * and the per-layer metrics come from their spans plus the run's
 * MetricsRegistry. With --spans the spans are written out at the end.
 *
 * Every batch is checked (connection accounting, handshake kinds, bulk
 * bytes), a known-answer session runs before timing, and traced runs
 * cross-check the spans against the engine's own counts. The last line
 * of stdout is one JSON object; the exit code is 0 only when every
 * check passed (1 = a check failed, 2 = bad arguments).
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "layers.hh"
#include "serve/engine.hh"
#include "ssl/client.hh"
#include "ssl/server.hh"
#include "util/cycles.hh"
#include "util/rng.hh"

namespace
{

using namespace ssla;
using namespace perfbench;

struct Workload
{
    const char *name;
    ssl::CipherSuiteId suite;
    double resumeFraction;
    size_t bulkBytes;   ///< application bytes per connection
    size_t recordBytes; ///< bytes per application-data write
    size_t poolThreads; ///< CryptoPool threads (0 = synchronous RSA)
    size_t connsPerWorker; ///< per engine run (one batch)
};

const Workload workloads[] = {
    // RSA-bound: every connection is a full handshake plus one small
    // request.
    {"full_rsa", ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA, 0.0, 256, 256,
     0, 100},
    // Cipher-bound: the paper's suite, every connection resumed,
    // 64 KiB in 16 KiB records.
    {"bulk_3des", ssl::CipherSuiteId::RSA_3DES_EDE_CBC_SHA, 1.0, 65536,
     16384, 0, 16},
    // Mixed: 0.8 resumption, small records, RSA on a CryptoPool.
    {"web_mix", ssl::CipherSuiteId::RSA_AES_128_CBC_SHA, 0.8, 16384, 1024,
     2, 250},
};

constexpr size_t workers = 2;
constexpr size_t slotsPerWorker = 2;
/** Set-ups per run; setup_s is their median. */
constexpr size_t setupRepeats = 15;
/** Full handshakes of the warm run that seeds resumption. */
constexpr size_t warmConnsPerWorker = 32;
/** Fewest batches (or plain/traced pairs) a run measures. */
constexpr size_t minBatches = 3;

/** splitmix64: every derived seed comes from the workload seed. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
deriveSeed(uint64_t seed, uint64_t tag)
{
    return mix64(seed ^ mix64(tag));
}

Bytes
seedBytes(uint64_t seed)
{
    Bytes out(8);
    for (size_t i = 0; i < 8; ++i)
        out[i] = static_cast<uint8_t>(seed >> (8 * i));
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/**
 * Peak resident set of this process image in MB (VmHWM). Unlike
 * getrusage's ru_maxrss it is not inherited across exec, so a launcher's
 * footprint does not leak into it.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

double
cyclesToUs(double cycles)
{
    return cycles / cycleHz() * 1e6;
}

/** Correctness violations; any entry fails the run. */
struct Checks
{
    std::set<std::string> violations;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            violations.insert(what);
    }
};

// ---------------------------------------------------------------------
// Set-up: key, certificate, crypto pool and warmed resumption sessions

struct Setup
{
    std::shared_ptr<crypto::RsaPrivateKey> key;
    std::optional<pki::Certificate> cert;
    std::unique_ptr<serve::CryptoPool> pool;
    std::vector<ssl::Session> sessions;
};

Setup
makeSetup(const Workload &wl, uint64_t seed, Checks &checks)
{
    Setup s;
    // The library's default key path (bn::activeEngine), so a change of
    // the default bignum backend shows in the handshake numbers.
    Xoshiro256 rng(deriveSeed(seed, 0x6b6579));
    const bn::RngFunc fill = [&](uint8_t *out, size_t len) {
        rng.fill(out, len);
    };
    crypto::RsaKeyPair kp = crypto::rsaGenerateKey(1024, fill);
    pki::CertificateInfo info;
    info.serial = seed;
    info.issuer = "perfbench CA";
    info.subject = "perfbench.server";
    info.notBefore = 0;
    info.notAfter = ~uint64_t(0);
    info.publicKey = kp.pub;
    s.cert = pki::Certificate::issue(info, *kp.priv);
    s.key = kp.priv;
    if (wl.poolThreads)
        s.pool = std::make_unique<serve::CryptoPool>(wl.poolThreads);

    // Warm run: full handshakes whose sessions seed resumption. It also
    // finishes lazy set-up (allocator, page faults) before timing.
    obs::MetricsRegistry reg;
    serve::ServeConfig cfg;
    cfg.workers = workers;
    cfg.concurrentPerWorker = slotsPerWorker;
    cfg.connectionsPerWorker = warmConnsPerWorker;
    cfg.suite = wl.suite;
    cfg.certificate = &*s.cert;
    cfg.privateKey = s.key;
    cfg.seed = deriveSeed(seed, 0x7761726d);
    cfg.metrics = &reg;
    serve::ServeEngine engine(std::move(cfg));
    const serve::ServeStats st = engine.run();
    checks.expect(st.fullHandshakes() == workers * warmConnsPerWorker,
                  "warm run: not every full handshake completed");
    s.sessions = engine.completedSessions();
    return s;
}

// ---------------------------------------------------------------------
// Known-answer session through the public SslClient/SslServer API

/** Send @p msg in @p record-sized writes and read it back in full. */
bool
roundTrip(ssl::SslEndpoint &from, ssl::SslEndpoint &to, const Bytes &msg,
          size_t record)
{
    for (size_t off = 0; off < msg.size(); off += record) {
        const size_t n = std::min(record, msg.size() - off);
        from.writeApplicationData(
            Bytes(msg.begin() + off, msg.begin() + off + n));
    }
    Bytes got;
    while (got.size() < msg.size()) {
        auto data = to.readApplicationData();
        if (!data)
            break;
        got.insert(got.end(), data->begin(), data->end());
    }
    return got == msg;
}

/**
 * One full and one resumed session on the workload's suite, each
 * carrying seeded plaintext both ways, which must arrive byte for byte.
 */
void
knownAnswer(const Workload &wl, const Setup &s, uint64_t seed,
            Checks &checks)
{
    Bytes plain(std::max<size_t>(wl.bulkBytes, 1));
    Xoshiro256(deriveSeed(seed, 0x6b6174)).fill(plain.data(), plain.size());

    ssl::SessionCache cache;
    std::optional<ssl::Session> resume;
    for (int pass = 0; pass < 2; ++pass) {
        crypto::RandomPool cpool(seedBytes(deriveSeed(seed, 0xc1 + pass)));
        crypto::RandomPool spool(seedBytes(deriveSeed(seed, 0x5e + pass)));
        ssl::BioPair wires;
        ssl::ServerConfig scfg;
        scfg.certificate = *s.cert;
        scfg.privateKey = s.key;
        scfg.suites = {wl.suite};
        scfg.sessionCache = &cache;
        scfg.randomPool = &spool;
        scfg.provider = &crypto::scalarProvider();
        ssl::ClientConfig ccfg;
        ccfg.suites = {wl.suite};
        ccfg.trustedIssuer = &s.key->publicKey();
        ccfg.expectedSubject = "perfbench.server";
        ccfg.randomPool = &cpool;
        ccfg.provider = &crypto::scalarProvider();
        ccfg.resumeSession = resume;
        ssl::SslServer server(std::move(scfg), wires.serverEnd());
        ssl::SslClient client(std::move(ccfg), wires.clientEnd());
        ssl::runLockstep(client, server);

        const std::string tag =
            pass ? "known-answer resumed session: " : "known-answer session: ";
        checks.expect(client.resumed() == (pass == 1) &&
                          server.resumed() == (pass == 1),
                      tag + "unexpected handshake kind");
        checks.expect(roundTrip(client, server, plain, wl.recordBytes),
                      tag + "client-to-server plaintext differs");
        checks.expect(roundTrip(server, client, plain, wl.recordBytes),
                      tag + "server-to-client plaintext differs");
        resume = client.session();
    }
}

// ---------------------------------------------------------------------
// Batches

struct Batch
{
    uint64_t attempted = 0;
    serve::ServeStats stats;
    double cpuSeconds = 0.0;

    double connPerSec() const
    {
        return attempted / stats.elapsedSeconds;
    }
};

/** The decorators a traced batch hands the engine. */
struct Tracing
{
    SpanLog log;
    TimedProvider provider{crypto::scalarProvider(), log};
};

/**
 * The engine points the shared pool's metrics at the batch's registry;
 * this points them back at the global one before that registry dies.
 */
struct PoolMetricsScope
{
    serve::CryptoPool *pool;

    ~PoolMetricsScope()
    {
        if (pool)
            pool->bindMetrics(nullptr);
    }
};

Batch
runBatch(const Workload &wl, Setup &s, uint64_t seed, Tracing *tracing)
{
    obs::MetricsRegistry reg;
    serve::ServeConfig cfg;
    cfg.workers = workers;
    cfg.concurrentPerWorker = slotsPerWorker;
    cfg.connectionsPerWorker = wl.connsPerWorker;
    cfg.resumeFraction = wl.resumeFraction;
    cfg.bulkBytes = wl.bulkBytes;
    cfg.recordBytes = wl.recordBytes;
    cfg.suite = wl.suite;
    cfg.certificate = &*s.cert;
    cfg.privateKey = s.key;
    cfg.resumptionSeed = s.sessions;
    cfg.cryptoPool = s.pool.get();
    cfg.seed = seed;
    cfg.metrics = &reg;

    // The same store the engine builds internally, behind the timer.
    std::optional<ssl::ShardedSessionCache> cache;
    std::optional<TimedStore> store;
    if (tracing) {
        cache.emplace(8, 1024, 0);
        cache->bindMetrics(&reg);
        store.emplace(*cache, tracing->log);
        cfg.provider = &tracing->provider;
        cfg.sessionStore = &*store;
    }

    Batch b;
    b.attempted = workers * wl.connsPerWorker;
    PoolMetricsScope pool_scope{s.pool.get()};
    serve::ServeEngine engine(std::move(cfg));
    if (tracing)
        tracing->log.arm();
    const double cpu0 = processCpuSeconds();
    b.stats = engine.run();
    b.cpuSeconds = processCpuSeconds() - cpu0;
    if (tracing)
        tracing->log.disarm();
    return b;
}

uint64_t
failedConns(const Batch &b)
{
    return b.attempted - b.stats.fullHandshakes() -
           b.stats.resumedHandshakes();
}

void
checkBatch(const Workload &wl, const Batch &b, Checks &checks)
{
    const serve::ServeStats &st = b.stats;
    checks.expect(st.terminatedSessions() == b.attempted,
                  "terminated sessions != connections attempted");
    checks.expect(failedConns(b) == 0,
                  "connections failed, timed out or were refused");
    if (wl.resumeFraction == 0.0)
        checks.expect(st.resumedHandshakes() == 0,
                      "a resumed handshake in an all-full workload");
    if (wl.resumeFraction == 1.0)
        checks.expect(st.fullHandshakes() == 0,
                      "a full handshake in an all-resumed workload");
    checks.expect(st.bulkBytesMoved() == b.attempted * wl.bulkBytes,
                  "bulk bytes received != connections x bulk size");
}

// ---------------------------------------------------------------------
// Output

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
jsonNumber(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               // Keeps the line valid JSON; the run is already failed.
               jsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------
// End-to-end metrics (untraced batches)

std::vector<Metric>
endToEnd(const std::vector<Batch> &batches, double setup_s)
{
    std::vector<double> conn_s, mb_s, cpu_ms;
    obs::HistogramSnapshot hs;
    for (const Batch &b : batches) {
        conn_s.push_back(b.connPerSec());
        mb_s.push_back(b.stats.bulkMBPerSec());
        cpu_ms.push_back(b.cpuSeconds * 1e3 / b.attempted);
        hs.merge(b.stats.metrics.histogram("serve.handshake_cycles"));
    }
    std::printf("handshake latency samples: %llu\n",
                static_cast<unsigned long long>(hs.count));
    return {
        {"conn_per_s", median(conn_s), "1/s"},
        {"hs_p50_ms", cyclesToUs(hs.percentile(50)) / 1e3, "ms"},
        {"hs_p95_ms", cyclesToUs(hs.percentile(95)) / 1e3, "ms"},
        {"bulk_mb_per_s", median(mb_s), "MB/s"},
        {"cpu_ms_per_conn", median(cpu_ms), "ms"},
        {"setup_s", setup_s, "s"},
        {"rss_peak_mb", peakRssMb(), "MB"},
    };
}

// ---------------------------------------------------------------------
// Per-layer metrics (traced batches)

struct KindTotal
{
    uint64_t count = 0;
    uint64_t ns = 0;
    uint64_t bytes = 0;
};

std::vector<Metric>
perLayer(const Workload &wl, const std::vector<Batch> &plain,
         const std::vector<Batch> &traced,
         const std::vector<std::unique_ptr<WorkerRun>> &runs,
         Checks &checks)
{
    KindTotal kinds[spanKindCount];
    double wall_ns = 0.0;
    for (const auto &run : runs) {
        checks.expect(run->endNs > run->startNs,
                      "worker run without an exit stamp");
        uint64_t busy = 0;
        uint64_t last_end = run->startNs;
        for (const Span &s : run->spans) {
            // Spans of one thread must be disjoint and inside its run,
            // or a decorator double-counted (nested timed calls).
            checks.expect(s.startNs >= last_end && s.endNs >= s.startNs,
                          "overlapping spans on one worker thread");
            last_end = s.endNs;
            KindTotal &k = kinds[static_cast<size_t>(s.kind)];
            ++k.count;
            k.ns += s.endNs - s.startNs;
            k.bytes += s.bytes;
            busy += s.endNs - s.startNs;
        }
        checks.expect(last_end <= run->endNs,
                      "span ends after its worker run");
        checks.expect(busy <= run->endNs - run->startNs,
                      "negative residual on a worker thread");
        wall_ns += double(run->endNs - run->startNs);
    }
    checks.expect(runs.size() == workers * traced.size(),
                  "traced worker runs != workers x traced batches");

    uint64_t conns = 0, full = 0, resumed = 0, app_bytes = 0;
    uint64_t records = 0, wire = 0, sweeps = 0, parks = 0;
    uint64_t pool_done = 0, pool_refused = 0;
    obs::HistogramSnapshot qwait, service;
    for (const Batch &b : traced) {
        const obs::MetricsSnapshot &m = b.stats.metrics;
        conns += b.attempted;
        full += b.stats.fullHandshakes();
        resumed += b.stats.resumedHandshakes();
        app_bytes += b.stats.bulkBytesMoved();
        records += m.counter("record.records_out") +
                   m.counter("record.records_in");
        wire += m.counter("record.bytes_out") + m.counter("record.bytes_in");
        sweeps += m.counter("serve.sweeps");
        parks += m.counter("serve.park_events");
        pool_done += m.counter("cryptopool.completed");
        pool_refused += m.counter("cryptopool.rejected") +
                        m.counter("cryptopool.shed") +
                        m.counter("cryptopool.deadline_shed");
        qwait.merge(m.histogram("cryptopool.queue_wait_cycles"));
        service.merge(m.histogram("cryptopool.service_cycles"));
    }

    auto k = [&](SpanKind kind) -> const KindTotal & {
        return kinds[static_cast<size_t>(kind)];
    };
    const double cyc_per_ns = cycleHz() / 1e9;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto share = [&](uint64_t ns) { return ratio(double(ns), wall_ns); };

    const KindTotal &seal = k(SpanKind::Seal), &open = k(SpanKind::Open);
    const KindTotal &mac = k(SpanKind::Mac), &store = k(SpanKind::Store);
    const KindTotal &hit = k(SpanKind::FindHit), &miss = k(SpanKind::FindMiss);
    const uint64_t rsa_worker_ops =
        k(SpanKind::RsaDecrypt).count + k(SpanKind::RsaSign).count;
    const uint64_t rsa_worker_ns =
        k(SpanKind::RsaDecrypt).ns + k(SpanKind::RsaSign).ns;
    // Pool threads run RSA outside the decorators; their service time
    // comes from the pool's own histogram.
    const uint64_t rsa_ops = rsa_worker_ops + pool_done;
    const double rsa_us =
        rsa_worker_ns / 1e3 + cyclesToUs(double(service.sum));
    const uint64_t finds = hit.count + miss.count;
    const uint64_t cipher_ns = seal.ns + open.ns;
    const uint64_t store_ns = hit.ns + miss.ns + store.ns;
    const double residual =
        1.0 - share(rsa_worker_ns + cipher_ns + mac.ns + store_ns);

    checks.expect(rsa_ops == full,
                  "RSA private ops != full handshakes");
    checks.expect(hit.count == resumed,
                  "session-store hits != resumed handshakes");
    checks.expect(open.bytes >= app_bytes,
                  "cipher bytes opened < application bytes");
    if (!wl.poolThreads)
        checks.expect(pool_done == 0, "pool jobs without a pool");

    std::vector<double> plain_cps, traced_cps;
    for (const Batch &b : plain)
        plain_cps.push_back(b.connPerSec());
    for (const Batch &b : traced)
        traced_cps.push_back(b.connPerSec());

    std::printf("anatomy of worker wall time (%.3f s over %zu worker "
                "runs):\n",
                wall_ns / 1e9, runs.size());
    std::printf("  %-20s %6.1f%%\n  %-20s %6.1f%%\n  %-20s %6.1f%%\n"
                "  %-20s %6.1f%%\n  %-20s %6.1f%%\n",
                "bn.rsa_private", 100 * share(rsa_worker_ns),
                "crypto.cipher", 100 * share(cipher_ns), "crypto.mac",
                100 * share(mac.ns), "ssl.session_store",
                100 * share(store_ns), "ssl.residual", 100 * residual);

    return {
        {"bn.rsa_private.us_per_op", ratio(rsa_us, double(rsa_ops)), "us"},
        {"bn.rsa_private.ops", ratio(rsa_ops, conns), "1/conn"},
        {"bn.rsa_private.share", share(rsa_worker_ns), "ratio"},
        {"crypto.cipher.seal_cycles_per_byte",
         ratio(seal.ns * cyc_per_ns, seal.bytes), "cycles/B"},
        {"crypto.cipher.open_cycles_per_byte",
         ratio(open.ns * cyc_per_ns, open.bytes), "cycles/B"},
        {"crypto.cipher.share", share(cipher_ns), "ratio"},
        {"crypto.mac.cycles_per_record", ratio(mac.ns * cyc_per_ns, mac.count),
         "cycles"},
        {"crypto.mac.records", ratio(mac.count, conns), "1/conn"},
        {"crypto.mac.share", share(mac.ns), "ratio"},
        {"ssl.session_store.find_us", ratio((hit.ns + miss.ns) / 1e3, finds),
         "us"},
        {"ssl.session_store.store_us", ratio(store.ns / 1e3, store.count),
         "us"},
        {"ssl.session_store.hit_ratio", ratio(hit.count, finds), "ratio"},
        {"ssl.session_store.share", share(store_ns), "ratio"},
        {"ssl.record.records_per_conn", ratio(records, conns), "1/conn"},
        {"ssl.record.wire_bytes_per_conn", ratio(wire, conns), "B/conn"},
        {"ssl.residual.share", residual, "ratio"},
        {"serve.cryptopool.jobs", ratio(pool_done, conns), "1/conn"},
        {"serve.cryptopool.queue_wait_p50_us",
         cyclesToUs(qwait.percentile(50)), "us"},
        {"serve.cryptopool.queue_wait_p99_us",
         cyclesToUs(qwait.percentile(99)), "us"},
        {"serve.cryptopool.service_p50_us",
         cyclesToUs(service.percentile(50)), "us"},
        {"serve.cryptopool.refused_ratio",
         ratio(pool_refused, pool_done + pool_refused), "ratio"},
        {"serve.engine.sweeps_per_conn", ratio(sweeps, conns), "1/conn"},
        {"serve.engine.parks_per_conn", ratio(parks, conns), "1/conn"},
        {"obs.trace_overhead_ratio",
         ratio(median(plain_cps), median(traced_cps)), "ratio"},
    };
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_serve: %s\nusage: perfbench_serve --workload "
                 "full_rsa|bulk_3des|web_mix --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n",
                 msg);
    return 2;
}

int
run(int argc, char **argv)
{
    const Workload *wl = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        if (arg == "--workload") {
            for (const Workload &w : workloads)
                if (val == w.name)
                    wl = &w;
            if (!wl)
                return usage(("unknown workload " + val).c_str());
        } else if (arg == "--seed") {
            seed = std::stoull(val);
        } else if (arg == "--seconds") {
            seconds = std::stod(val);
        } else if (arg == "--trace") {
            trace = val == "1";
        } else if (arg == "--spans") {
            spans_path = val;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!wl)
        return usage("--workload is required");

    cycleHz(); // calibrate before anything is timed
    Checks checks;

    // Set-up, repeated on sub-seeds; the run uses the first.
    std::vector<double> setup_times;
    Setup setup;
    for (size_t rep = 0; rep < setupRepeats; ++rep) {
        const uint64_t t0 = nowNs();
        Setup s = makeSetup(*wl, deriveSeed(seed, rep), checks);
        setup_times.push_back((nowNs() - t0) / 1e9);
        if (rep == 0)
            setup = std::move(s);
    }

    knownAnswer(*wl, setup, seed, checks);

    std::vector<Batch> plain, traced;
    std::unique_ptr<Tracing> tracing;
    if (trace)
        tracing = std::make_unique<Tracing>();
    std::vector<std::unique_ptr<WorkerRun>> runs;
    const uint64_t start = nowNs();
    for (uint64_t n = 0;
         n < minBatches || (nowNs() - start) / 1e9 < seconds; ++n) {
        const uint64_t batch_seed = deriveSeed(seed, 0x62617463680000 + n);
        plain.push_back(runBatch(*wl, setup, batch_seed, nullptr));
        checkBatch(*wl, plain.back(), checks);
        if (tracing) {
            traced.push_back(
                runBatch(*wl, setup, batch_seed, tracing.get()));
            checkBatch(*wl, traced.back(), checks);
            for (auto &r : tracing->log.take())
                runs.push_back(std::move(r));
        }
    }

    uint64_t attempted = 0, failed = 0;
    for (const auto *set : {&plain, &traced})
        for (const Batch &b : *set) {
            attempted += b.attempted;
            failed += failedConns(b);
        }
    std::printf("workload %s seed %llu: %zu batches, %llu connections\n",
                wl->name, static_cast<unsigned long long>(seed),
                plain.size() + traced.size(),
                static_cast<unsigned long long>(attempted));

    std::vector<Metric> metrics =
        trace ? perLayer(*wl, plain, traced, runs, checks)
              : endToEnd(plain, median(setup_times));
    for (const Metric &m : metrics)
        checks.expect(std::isfinite(m.value), m.name + " is not finite");
    if (trace && !spans_path.empty())
        checks.expect(writeSpans(spans_path, runs),
                      "cannot write spans to " + spans_path);

    for (const std::string &v : checks.violations)
        std::fprintf(stderr, "CHECK FAILED: %s\n", v.c_str());
    const bool correct = checks.violations.empty();
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        // A session error or a bad argument: no result is printed.
        std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
        return 1;
    }
}
