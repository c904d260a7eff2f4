/**
 * @file
 * Data-plane throughput bench and correctness gate for the zero-copy
 * scatter-gather send path (span-based RecordLayer + writev Bio +
 * ServeEngine batched flush).
 *
 * Two hard gates decide the exit code:
 *
 *  1. Wire identity: the refactored in-place send path must produce
 *     byte-identical records to the pre-refactor copy path. The old
 *     sealing algorithm (fragment copy -> MAC append -> SSLv3 pad ->
 *     encrypt -> header + fragment) is reimplemented here verbatim as
 *     the reference, keyed identically, and compared across suites,
 *     payload sizes (including the 16384/16385 fragmentation boundary
 *     and the empty record) and multi-slice gather sends.
 *
 *  2. Steady-state zero-copy/zero-alloc: over a warmed-up bulk window
 *     the record.scratch_grows and record.pending_spills counters must
 *     not move — every record is laid out in the reusable arena and
 *     accepted whole by the transport.
 *
 * The reported (never gated) numbers are a record-size sweep of the
 * data plane: direct RecordLayer gather-send throughput, and a
 * ServeEngine run in data-plane session mode (bulkBatchRecords > 0,
 * cross-session batched flush) with records/s and MB/s per worker.
 * Output is BENCH_throughput.json on stdout (see EXPERIMENTS.md).
 *
 *   ./bench_serve_throughput [--smoke]
 */

#include <cstdio>
#include <cstring>
#include <thread>

#include "common.hh"
#include "crypto/provider.hh"
#include "pki/cert.hh"
#include "serve/engine.hh"
#include "ssl/record.hh"
#include "util/cycles.hh"

using namespace ssla;
using namespace ssla::bench;
using namespace ssla::ssl;

namespace
{

struct Sender
{
    BioPair wires;
    RecordLayer layer;

    Sender(CipherSuiteId id, uint64_t seed)
        : layer(wires.clientEnd(), &crypto::scalarProvider())
    {
        const CipherSuite &suite = cipherSuite(id);
        Xoshiro256 rng(seed);
        Bytes mac = rng.bytes(suite.macLen());
        Bytes key = rng.bytes(suite.keyLen());
        Bytes iv = rng.bytes(suite.ivLen());
        layer.enableSendCipher(suite, mac, key, iv);
    }

    Bytes
    drain()
    {
        BioEndpoint end = wires.serverEnd();
        Bytes wire(end.available());
        end.read(wire.data(), wire.size());
        return wire;
    }
};

/**
 * The pre-refactor copy path, preserved as the reference sealer: one
 * heap fragment per record, assembled by append (payload copy, MAC
 * copy, pad append), encrypted out of place conceptually (here in
 * place on the private copy — the bytes are what matter), then header
 * and fragment concatenated into the wire. Keyed with the same
 * rng-derived material as a Sender built from the same seed.
 */
struct LegacySealer
{
    const CipherSuite &suite;
    Bytes macSecret;
    std::unique_ptr<crypto::Cipher> cipher;
    uint64_t seq = 0;

    LegacySealer(crypto::Provider &provider, CipherSuiteId id,
                 uint64_t seed)
        : suite(cipherSuite(id))
    {
        Xoshiro256 rng(seed);
        macSecret = rng.bytes(suite.macLen());
        Bytes key = rng.bytes(suite.keyLen());
        Bytes iv = rng.bytes(suite.ivLen());
        cipher = provider.createCipher(suite.cipher, key, iv, true);
    }

    Bytes
    seal(ContentType type, const Bytes &payload)
    {
        Bytes wire;
        size_t sent = 0;
        do {
            size_t chunk = std::min(payload.size() - sent, maxFragment);
            Bytes fragment(payload.begin() + sent,
                           payload.begin() + sent + chunk);
            Bytes mac = ssl3Mac(suite.mac, macSecret, seq++,
                                static_cast<uint8_t>(type),
                                fragment.data(), fragment.size());
            fragment.insert(fragment.end(), mac.begin(), mac.end());
            size_t block = suite.blockLen();
            if (block > 1) {
                size_t pad =
                    (block - (fragment.size() + 1) % block) % block;
                fragment.insert(fragment.end(), pad + 1,
                                static_cast<uint8_t>(pad));
            }
            cipher->process(fragment.data(), fragment.data(),
                            fragment.size());
            wire.push_back(static_cast<uint8_t>(type));
            wire.push_back(0x03);
            wire.push_back(0x00);
            wire.push_back(
                static_cast<uint8_t>(fragment.size() >> 8));
            wire.push_back(static_cast<uint8_t>(fragment.size()));
            wire.insert(wire.end(), fragment.begin(), fragment.end());
            sent += chunk;
        } while (sent < payload.size());
        return wire;
    }
};

/** Split @p payload into up to three uneven slices. */
size_t
splitSpans(const Bytes &payload, ConstSpan *iov)
{
    if (payload.size() < 3) {
        iov[0] = ConstSpan{payload.data(), payload.size()};
        return 1;
    }
    size_t a = payload.size() / 3;
    size_t b = payload.size() / 2;
    iov[0] = ConstSpan{payload.data(), a};
    iov[1] = ConstSpan{payload.data() + a, b - a};
    iov[2] = ConstSpan{payload.data() + b, payload.size() - b};
    return 3;
}

/**
 * Gate 1: span path vs legacy copy path, byte for byte. Each payload
 * goes out twice — once as one span, once gathered from three — so
 * both the contiguous and the scatter entry see the comparison, with
 * sequence numbers and the CBC chain advancing through all of it.
 */
bool
wireIdentical(CipherSuiteId id, const std::vector<size_t> &sizes)
{
    Sender s(id, /*seed=*/4242);
    LegacySealer legacy(crypto::scalarProvider(), id, /*seed=*/4242);
    for (size_t size : sizes) {
        Bytes payload = benchPayload(size, size * 131 + 11);
        s.layer.send(ContentType::ApplicationData, payload);
        if (s.drain() !=
            legacy.seal(ContentType::ApplicationData, payload))
            return false;
        ConstSpan iov[3];
        size_t iovcnt = splitSpans(payload, iov);
        s.layer.sendMany(ContentType::ApplicationData, iov, iovcnt);
        if (s.drain() !=
            legacy.seal(ContentType::ApplicationData, payload))
            return false;
    }
    return true;
}

struct SteadyState
{
    uint64_t scratchGrows = 0;
    uint64_t pendingSpills = 0;

    bool ok() const { return scratchGrows == 0 && pendingSpills == 0; }
};

/**
 * Gate 2: warm the send path up (the arena reaches its high-water
 * size), then move a bulk window through it and report how far the
 * allocation/spill counters moved. Zero is the contract.
 */
SteadyState
measureSteadyState(CipherSuiteId id, size_t record_bytes, int records)
{
    obs::MetricsRegistry registry;
    RecordCounters counters = RecordCounters::resolve(registry);
    Sender s(id, /*seed=*/99);
    s.layer.bindCounters(&counters);

    Bytes payload = benchPayload(record_bytes, record_bytes + 3);
    ConstSpan iov[3];
    size_t iovcnt = splitSpans(payload, iov);
    // Warm-up: the arena grows to its steady size here (counted, but
    // before the measurement window).
    for (int i = 0; i < 4; ++i) {
        s.layer.send(ContentType::ApplicationData, payload);
        s.layer.sendMany(ContentType::ApplicationData, iov, iovcnt);
        s.drain();
    }
    obs::MetricsSnapshot before = registry.snapshot();
    for (int i = 0; i < records; ++i) {
        s.layer.sendMany(ContentType::ApplicationData, iov, iovcnt);
        if ((i & 7) == 7)
            s.drain();
    }
    s.drain();
    obs::MetricsSnapshot after = registry.snapshot();
    SteadyState r;
    r.scratchGrows = after.counter("record.scratch_grows") -
                     before.counter("record.scratch_grows");
    r.pendingSpills = after.counter("record.pending_spills") -
                      before.counter("record.pending_spills");
    return r;
}

struct LayerSample
{
    double recordsPerSec = 0.0;
    double mbPerSec = 0.0;
};

/** Direct RecordLayer gather-send throughput at one record size. */
LayerSample
measureLayer(CipherSuiteId id, size_t record_bytes, int reps)
{
    Sender s(id, /*seed=*/7);
    Bytes payload = benchPayload(record_bytes, record_bytes * 5 + 1);
    ConstSpan iov[3];
    size_t iovcnt = splitSpans(payload, iov);
    const int batch = 32;
    // Warm-up.
    for (int i = 0; i < batch; ++i)
        s.layer.sendMany(ContentType::ApplicationData, iov, iovcnt);
    s.drain();
    std::vector<uint64_t> wall;
    wall.reserve(reps);
    for (int r = 0; r < reps; ++r) {
        uint64_t w0 = rdcycles();
        for (int i = 0; i < batch; ++i)
            s.layer.sendMany(ContentType::ApplicationData, iov,
                             iovcnt);
        wall.push_back(rdcycles() - w0);
        s.drain();
    }
    std::sort(wall.begin(), wall.end());
    double cycles = static_cast<double>(wall[wall.size() / 2]);
    double secs = cycles / cycleHz();
    LayerSample out;
    out.recordsPerSec = secs > 0 ? batch / secs : 0.0;
    out.mbPerSec = secs > 0 ? batch * static_cast<double>(record_bytes) /
                                  secs / 1e6
                            : 0.0;
    return out;
}

struct EngineSample
{
    serve::ServeStats stats;
    size_t workers = 0;
    uint64_t expectedConnections = 0;

    bool
    completedOk() const
    {
        return stats.fullHandshakes() + stats.resumedHandshakes() ==
               expectedConnections;
    }

    double
    recordsPerSecPerWorker() const
    {
        return stats.elapsedSeconds > 0 && workers
                   ? static_cast<double>(stats.dataPlaneRecords()) /
                         stats.elapsedSeconds / workers
                   : 0.0;
    }

    double
    mbPerSecPerWorker() const
    {
        return workers ? stats.bulkMBPerSec() / workers : 0.0;
    }
};

/** One ServeEngine run in data-plane session mode at one record size. */
EngineSample
runEngine(size_t workers, size_t record_bytes, size_t bulk_bytes,
          const pki::Certificate &cert,
          const std::shared_ptr<crypto::RsaPrivateKey> &key)
{
    obs::MetricsRegistry registry;
    serve::ServeConfig cfg;
    cfg.workers = workers;
    cfg.connectionsPerWorker = 4;
    cfg.concurrentPerWorker = 4;
    cfg.bulkBytes = bulk_bytes;
    cfg.recordBytes = record_bytes;
    cfg.bulkBatchRecords = 8;
    cfg.suite = CipherSuiteId::RSA_AES_128_CBC_SHA;
    cfg.certificate = &cert;
    cfg.privateKey = key;
    cfg.seed = 0x7b9 ^ (record_bytes << 4) ^ workers;
    cfg.metrics = &registry;

    EngineSample r;
    r.workers = workers;
    r.expectedConnections = cfg.connectionsPerWorker * workers;
    serve::ServeEngine engine(std::move(cfg));
    r.stats = engine.run();
    return r;
}

const char *
suiteName(CipherSuiteId id)
{
    switch (id) {
    case CipherSuiteId::RSA_3DES_EDE_CBC_SHA:
        return "RSA_3DES_EDE_CBC_SHA";
    case CipherSuiteId::RSA_AES_128_CBC_SHA:
        return "RSA_AES_128_CBC_SHA";
    case CipherSuiteId::RSA_RC4_128_SHA:
        return "RSA_RC4_128_SHA";
    default:
        return "?";
    }
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

    const CipherSuiteId suites[] = {
        CipherSuiteId::RSA_3DES_EDE_CBC_SHA,
        CipherSuiteId::RSA_AES_128_CBC_SHA,
        CipherSuiteId::RSA_RC4_128_SHA,
    };
    // The identity set crosses both fragmentation edges: the empty
    // record, one-byte, sub-fragment sizes, exactly maxFragment, and
    // one byte past it (two records, the second of size 1).
    const std::vector<size_t> identity_sizes = {0,    1,     256,
                                                4096, 16384, 16385};
    const std::vector<size_t> sweep =
        smoke ? std::vector<size_t>{1024, 16384}
              : std::vector<size_t>{256, 1024, 4096, 16384};
    const int reps = smoke ? 5 : 15;
    const int steady_records = smoke ? 64 : 512;
    const size_t workers = std::min<size_t>(
        smoke ? 1 : 2,
        std::max(1u, std::thread::hardware_concurrency()));

    const auto &key = benchKey(1024);
    pki::CertificateInfo info;
    info.serial = 1;
    info.issuer = "Bench CA";
    info.subject = "bench.server";
    info.notBefore = 0;
    info.notAfter = ~uint64_t(0);
    info.publicKey = key.pub;
    pki::Certificate cert = pki::Certificate::issue(info, *key.priv);

    bool all_identical = true;
    bool all_steady = true;
    bool all_completed = true;

    JsonWriter j;
    j.beginObject();
    j.field("bench", "serve_throughput");
    j.field("cycle_hz", cycleHz(), 0);
    j.field("smoke", smoke);
    j.field("workers", static_cast<uint64_t>(workers));

    // --- Gate 1: wire identity vs the legacy copy path ---
    j.beginArray("wire_identity");
    for (CipherSuiteId id : suites) {
        bool identical = wireIdentical(id, identity_sizes);
        all_identical = all_identical && identical;
        j.beginObject();
        j.field("suite", suiteName(id));
        j.field("identical", identical);
        j.endObject();
    }
    j.endArray();

    // --- Gate 2: steady-state zero-alloc / zero-spill ---
    j.beginArray("steady_state");
    for (CipherSuiteId id : suites) {
        SteadyState ss = measureSteadyState(id, 16384, steady_records);
        all_steady = all_steady && ss.ok();
        j.beginObject();
        j.field("suite", suiteName(id));
        j.field("records", static_cast<uint64_t>(steady_records));
        j.field("scratch_grows", ss.scratchGrows);
        j.field("pending_spills", ss.pendingSpills);
        j.field("steady_ok", ss.ok());
        j.endObject();
    }
    j.endArray();

    // --- Reported: record-size sweep, RecordLayer and ServeEngine ---
    j.beginArray("results");
    for (size_t size : sweep) {
        LayerSample layer =
            measureLayer(CipherSuiteId::RSA_AES_128_CBC_SHA, size, reps);
        // Bulk volume scales with the record size so every cell moves
        // a meaningful number of batched flushes without dwarfing the
        // smoke budget.
        size_t bulk = std::max<size_t>(size * 16, 65536);
        EngineSample eng = runEngine(workers, size, bulk, cert,
                                     key.priv);
        all_completed = all_completed && eng.completedOk();
        j.beginObject();
        j.field("record_bytes", static_cast<uint64_t>(size));
        j.beginObject("record_layer");
        j.field("records_per_sec", layer.recordsPerSec, 0);
        j.field("mb_per_sec", layer.mbPerSec, 2);
        j.endObject();
        j.beginObject("serve_engine");
        j.field("bulk_bytes_per_conn", static_cast<uint64_t>(bulk));
        j.field("dataplane_flushes", eng.stats.dataPlaneFlushes());
        j.field("dataplane_records", eng.stats.dataPlaneRecords());
        j.field("elapsed_sec", eng.stats.elapsedSeconds);
        j.field("records_per_sec_per_worker",
                eng.recordsPerSecPerWorker(), 0);
        j.field("mb_per_sec_per_worker", eng.mbPerSecPerWorker(), 2);
        j.field("completed_ok", eng.completedOk());
        j.endObject();
        j.endObject();
    }
    j.endArray();

    const bool pass = all_identical && all_steady && all_completed;
    j.beginObject("gate");
    j.field("wire_identical", all_identical);
    j.field("steady_state_zero", all_steady);
    j.field("engine_completed", all_completed);
    j.field("pass", pass);
    j.endObject();
    j.endObject();
    std::printf("\n");

    if (!all_identical)
        std::fprintf(stderr, "FAIL: span send path diverged from the "
                             "legacy copy path\n");
    if (!all_steady)
        std::fprintf(stderr, "FAIL: data-plane alloc/spill counters "
                             "moved in steady state\n");
    if (!all_completed)
        std::fprintf(stderr,
                     "FAIL: data-plane engine run incomplete\n");
    return pass ? 0 : 1;
}
