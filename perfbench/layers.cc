#include "layers.hh"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench
{

using namespace ssla;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Seal:
        return "cipher.seal";
    case SpanKind::Open:
        return "cipher.open";
    case SpanKind::Mac:
        return "mac.record";
    case SpanKind::RsaDecrypt:
        return "rsa.decrypt";
    case SpanKind::RsaSign:
        return "rsa.sign";
    case SpanKind::FindHit:
        return "store.find_hit";
    case SpanKind::FindMiss:
        return "store.find_miss";
    case SpanKind::Store:
        return "store.store";
    }
    return "?";
}

namespace
{

/**
 * The calling thread's current worker run. Its destructor runs at
 * thread exit, before join() returns, and stamps the run's end.
 */
struct ThreadSlot
{
    WorkerRun *run = nullptr;
    uint64_t generation = 0;

    ~ThreadSlot()
    {
        if (run)
            run->endNs = nowNs();
    }
};

thread_local ThreadSlot t_slot;

} // anonymous namespace

// ---------------------------------------------------------------------
// SpanLog

void
SpanLog::arm()
{
    armedAtNs_ = nowNs();
    generation_.fetch_add(1, std::memory_order_relaxed);
    armed_.store(true, std::memory_order_release);
}

void
SpanLog::disarm()
{
    armed_.store(false, std::memory_order_release);
}

WorkerRun *
SpanLog::runForThisThread()
{
    const uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (t_slot.run && t_slot.generation == gen)
        return t_slot.run;
    // Engine threads live for one run. A thread that outlived an earlier
    // run leaves it without an exit stamp, which the analysis rejects.
    auto run = std::make_unique<WorkerRun>();
    run->startNs = armedAtNs_;
    run->thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    WorkerRun *raw = run.get();
    {
        std::lock_guard<std::mutex> lock(m_);
        run->id = nextRunId_++;
        runs_.push_back(std::move(run));
    }
    t_slot.run = raw;
    t_slot.generation = gen;
    return raw;
}

void
SpanLog::record(SpanKind kind, uint64_t start_ns, uint64_t end_ns,
                size_t bytes)
{
    if (!armed())
        return;
    runForThisThread()->spans.push_back(
        {start_ns, end_ns, static_cast<uint32_t>(bytes), kind});
}

std::vector<std::unique_ptr<WorkerRun>>
SpanLog::take()
{
    std::vector<std::unique_ptr<WorkerRun>> out;
    std::lock_guard<std::mutex> lock(m_);
    out.swap(runs_);
    return out;
}

// ---------------------------------------------------------------------
// Decorators

namespace
{

/** Cipher decorator: one span per process() call. */
class TimedCipher final : public crypto::Cipher
{
  public:
    TimedCipher(std::unique_ptr<crypto::Cipher> inner, SpanKind kind,
                SpanLog &log)
        : inner_(std::move(inner)), kind_(kind), log_(log)
    {}

    const crypto::CipherInfo &info() const override
    {
        return inner_->info();
    }

    void
    process(const uint8_t *in, uint8_t *out, size_t len) override
    {
        const uint64_t t0 = nowNs();
        inner_->process(in, out, len);
        log_.record(kind_, t0, nowNs(), len);
    }

  private:
    std::unique_ptr<crypto::Cipher> inner_;
    SpanKind kind_;
    SpanLog &log_;
};

} // anonymous namespace

std::unique_ptr<crypto::Cipher>
TimedProvider::createCipher(crypto::CipherAlg alg, const Bytes &key,
                            const Bytes &iv, bool encrypt)
{
    return std::make_unique<TimedCipher>(
        inner_.createCipher(alg, key, iv, encrypt),
        encrypt ? SpanKind::Seal : SpanKind::Open, log_);
}

std::unique_ptr<crypto::Digest>
TimedProvider::createDigest(crypto::DigestAlg alg)
{
    return inner_.createDigest(alg);
}

std::unique_ptr<crypto::Hmac>
TimedProvider::createHmac(crypto::DigestAlg alg, const Bytes &key)
{
    return inner_.createHmac(alg, key);
}

size_t
TimedProvider::recordMac(const crypto::RecordMacSpec &spec, uint64_t seq,
                         uint8_t type, ConstSpan data, uint8_t *mac_out)
{
    const uint64_t t0 = nowNs();
    const size_t n = inner_.recordMac(spec, seq, type, data, mac_out);
    log_.record(SpanKind::Mac, t0, nowNs(), data.size());
    return n;
}

Bytes
TimedProvider::rsaDecrypt(const crypto::RsaPrivateKey &key,
                          const Bytes &cipher)
{
    const uint64_t t0 = nowNs();
    Bytes out = inner_.rsaDecrypt(key, cipher);
    log_.record(SpanKind::RsaDecrypt, t0, nowNs(), cipher.size());
    return out;
}

Bytes
TimedProvider::rsaSign(const crypto::RsaPrivateKey &key,
                       const Bytes &digest_data)
{
    const uint64_t t0 = nowNs();
    Bytes out = inner_.rsaSign(key, digest_data);
    log_.record(SpanKind::RsaSign, t0, nowNs(), digest_data.size());
    return out;
}

void
TimedStore::store(const ssl::Session &session)
{
    const uint64_t t0 = nowNs();
    inner_.store(session);
    log_.record(SpanKind::Store, t0, nowNs(), 0);
}

std::optional<ssl::Session>
TimedStore::find(const Bytes &id)
{
    const uint64_t t0 = nowNs();
    auto found = inner_.find(id);
    log_.record(found ? SpanKind::FindHit : SpanKind::FindMiss, t0,
                nowNs(), 0);
    return found;
}

bool
writeSpans(const std::string &path,
           const std::vector<std::unique_ptr<WorkerRun>> &runs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "name\tthread\tstart_ns\tend_ns\tbytes\tworker_run\n");
    for (const auto &run : runs) {
        std::fprintf(f, "worker.run\t%llx\t%llu\t%llu\t0\t%llu\n",
                     static_cast<unsigned long long>(run->thread),
                     static_cast<unsigned long long>(run->startNs),
                     static_cast<unsigned long long>(run->endNs),
                     static_cast<unsigned long long>(run->id));
        for (const Span &s : run->spans)
            std::fprintf(f, "%s\t%llx\t%llu\t%llu\t%u\t%llu\n",
                         spanName(s.kind),
                         static_cast<unsigned long long>(run->thread),
                         static_cast<unsigned long long>(s.startNs),
                         static_cast<unsigned long long>(s.endNs), s.bytes,
                         static_cast<unsigned long long>(run->id));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
