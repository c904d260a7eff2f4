#include "obs/metrics.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace ssla::obs
{

// ---------------------------------------------------------------------
// HistogramLayout

size_t
HistogramLayout::bucketIndex(uint64_t v)
{
    if (v < linearMax)
        return static_cast<size_t>(v);
    // floor(log2(v)) >= subBits + 1 here.
    unsigned e = 63 - std::countl_zero(v);
    uint64_t sub = (v >> (e - subBits)) - subCount;
    return static_cast<size_t>(linearMax +
                               (e - (subBits + 1)) * subCount + sub);
}

uint64_t
HistogramLayout::lowerBound(size_t i)
{
    if (i < linearMax)
        return i;
    size_t off = i - linearMax;
    unsigned e = static_cast<unsigned>(off / subCount) + subBits + 1;
    uint64_t sub = off % subCount;
    return (1ull << e) + sub * (1ull << (e - subBits));
}

uint64_t
HistogramLayout::upperBound(size_t i)
{
    if (i < linearMax)
        return i + 1;
    if (i + 1 >= bucketCount)
        return ~0ull; // top bucket's bound would overflow 2^64
    return lowerBound(i + 1);
}

// ---------------------------------------------------------------------
// HistogramSnapshot

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // The extremes are tracked exactly; don't interpolate them.
    if (p == 0.0)
        return static_cast<double>(min);
    if (p == 100.0)
        return static_cast<double>(max);
    // Rank in (0, count]: the number of samples at or below the
    // returned value. Interpolate linearly inside the bucket that
    // crosses the rank.
    double rank = (p / 100.0) * static_cast<double>(count);
    if (rank < 1.0)
        rank = 1.0;
    uint64_t cum = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        if (!buckets[i])
            continue;
        cum += buckets[i];
        if (static_cast<double>(cum) >= rank) {
            const size_t layout = firstBucket + i;
            double lo =
                static_cast<double>(HistogramLayout::lowerBound(layout));
            double hi =
                static_cast<double>(HistogramLayout::upperBound(layout));
            double before = static_cast<double>(cum - buckets[i]);
            double frac =
                (rank - before) / static_cast<double>(buckets[i]);
            double v = lo + frac * (hi - lo);
            return std::clamp(v, static_cast<double>(min),
                              static_cast<double>(max));
        }
    }
    return static_cast<double>(max);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        *this = other;
        return;
    }
    // Widen this range to cover both, then add other's buckets in.
    const size_t end = firstBucket + buckets.size();
    const size_t lo = std::min(firstBucket, other.firstBucket);
    const size_t hi =
        std::max(end, other.firstBucket + other.buckets.size());
    if (lo < firstBucket || hi > end) {
        std::vector<uint64_t> wide(hi - lo, 0);
        std::copy(buckets.begin(), buckets.end(),
                  wide.begin() + (firstBucket - lo));
        buckets = std::move(wide);
        firstBucket = lo;
    }
    for (size_t i = 0; i < other.buckets.size(); ++i)
        buckets[other.firstBucket - firstBucket + i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
}

// ---------------------------------------------------------------------
// MetricsSnapshot

uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

HistogramSnapshot
MetricsSnapshot::histogram(const std::string &name) const
{
    auto it = histograms.find(name);
    return it == histograms.end() ? HistogramSnapshot{} : it->second;
}

// ---------------------------------------------------------------------
// MetricsRegistry storage

/**
 * One histogram's cells in one thread's shard. Written only by the
 * owning thread; read concurrently by snapshot(), so every cell is a
 * relaxed atomic. min/max need no CAS loop for the same reason —
 * single writer.
 */
struct MetricsRegistry::HistCells
{
    std::atomic<uint64_t> buckets[HistogramLayout::bucketCount] = {};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{~0ull};
    std::atomic<uint64_t> max{0};

    void
    record(uint64_t v)
    {
        buckets[HistogramLayout::bucketIndex(v)].fetch_add(
            1, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
        sum.fetch_add(v, std::memory_order_relaxed);
        if (v < min.load(std::memory_order_relaxed))
            min.store(v, std::memory_order_relaxed);
        if (v > max.load(std::memory_order_relaxed))
            max.store(v, std::memory_order_relaxed);
    }
};

struct MetricsRegistry::ThreadShard
{
    std::unique_ptr<std::atomic<uint64_t>[]> counters;
    std::atomic<HistCells *> hists[maxHistograms] = {};

    ThreadShard()
        : counters(new std::atomic<uint64_t>[maxCounters])
    {
        for (size_t i = 0; i < maxCounters; ++i)
            counters[i].store(0, std::memory_order_relaxed);
    }

    ~ThreadShard()
    {
        for (auto &h : hists)
            delete h.load(std::memory_order_relaxed);
    }
};

namespace
{

std::atomic<uint64_t> nextRegistrySerial{1};

/**
 * Per-thread shard cache, keyed by registry serial (never reused, so a
 * stale entry for a destroyed registry can never be confused with a
 * live one). Most-recently-used entry is kept at the front; a process
 * touches a handful of registries, so the scan is one or two compares.
 */
struct TlsShardRef
{
    uint64_t serial;
    void *shard;
};
thread_local std::vector<TlsShardRef> tlsShards;

} // anonymous namespace

MetricsRegistry::MetricsRegistry()
    : gauges_(new std::atomic<int64_t>[maxGauges]),
      serial_(nextRegistrySerial.fetch_add(1, std::memory_order_relaxed))
{
    for (size_t i = 0; i < maxGauges; ++i)
        gauges_[i].store(0, std::memory_order_relaxed);
}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry &
MetricsRegistry::global()
{
    // Leaked deliberately: detached/worker threads may still increment
    // through cached handles during process teardown.
    static MetricsRegistry *g = new MetricsRegistry();
    return *g;
}

MetricsRegistry::ThreadShard &
MetricsRegistry::myShard()
{
    for (size_t i = 0; i < tlsShards.size(); ++i) {
        if (tlsShards[i].serial == serial_) {
            if (i)
                std::swap(tlsShards[0], tlsShards[i]);
            return *static_cast<ThreadShard *>(tlsShards[0].shard);
        }
    }
    auto shard = std::make_unique<ThreadShard>();
    ThreadShard *p = shard.get();
    {
        std::lock_guard<std::mutex> lock(m_);
        shards_.push_back(std::move(shard));
    }
    tlsShards.insert(tlsShards.begin(), TlsShardRef{serial_, p});
    return *p;
}

void
MetricsRegistry::warnOverflowOnce(const char *kind)
{
    if (!overflowWarned_) {
        overflowWarned_ = true;
        warn(std::string("MetricsRegistry: ") + kind +
             " capacity exhausted; further registrations are no-ops");
    }
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = counterIds_.find(name);
    if (it != counterIds_.end())
        return Counter(this, it->second);
    if (counterNames_.size() >= maxCounters) {
        warnOverflowOnce("counter");
        return Counter();
    }
    uint32_t id = static_cast<uint32_t>(counterNames_.size());
    counterNames_.push_back(name);
    counterIds_.emplace(name, id);
    return Counter(this, id);
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = gaugeIds_.find(name);
    if (it != gaugeIds_.end())
        return Gauge(this, it->second);
    if (gaugeNames_.size() >= maxGauges) {
        warnOverflowOnce("gauge");
        return Gauge();
    }
    uint32_t id = static_cast<uint32_t>(gaugeNames_.size());
    gaugeNames_.push_back(name);
    gaugeIds_.emplace(name, id);
    return Gauge(this, id);
}

Histogram
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(m_);
    auto it = histIds_.find(name);
    if (it != histIds_.end())
        return Histogram(this, it->second);
    if (histNames_.size() >= maxHistograms) {
        warnOverflowOnce("histogram");
        return Histogram();
    }
    uint32_t id = static_cast<uint32_t>(histNames_.size());
    histNames_.push_back(name);
    histIds_.emplace(name, id);
    return Histogram(this, id);
}

void
MetricsRegistry::counterAdd(uint32_t id, uint64_t n)
{
    if (!enabled())
        return;
    myShard().counters[id].fetch_add(n, std::memory_order_relaxed);
}

void
MetricsRegistry::gaugeSet(uint32_t id, int64_t v)
{
    if (!enabled())
        return;
    gauges_[id].store(v, std::memory_order_relaxed);
}

void
MetricsRegistry::gaugeAdd(uint32_t id, int64_t delta)
{
    if (!enabled())
        return;
    gauges_[id].fetch_add(delta, std::memory_order_relaxed);
}

void
MetricsRegistry::histogramRecord(uint32_t id, uint64_t value)
{
    if (!enabled())
        return;
    ThreadShard &shard = myShard();
    HistCells *cells = shard.hists[id].load(std::memory_order_acquire);
    if (!cells) {
        // Only the owning thread allocates its cells; release-publish
        // for the snapshot reader.
        cells = new HistCells();
        shard.hists[id].store(cells, std::memory_order_release);
    }
    cells->record(value);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    std::lock_guard<std::mutex> lock(m_);
    for (size_t id = 0; id < counterNames_.size(); ++id) {
        uint64_t sum = 0;
        for (const auto &shard : shards_)
            sum += shard->counters[id].load(std::memory_order_relaxed);
        out.counters[counterNames_[id]] = sum;
    }
    for (size_t id = 0; id < gaugeNames_.size(); ++id)
        out.gauges[gaugeNames_[id]] =
            gauges_[id].load(std::memory_order_relaxed);
    for (size_t id = 0; id < histNames_.size(); ++id) {
        HistogramSnapshot merged;
        for (const auto &shard : shards_) {
            const HistCells *cells =
                shard->hists[id].load(std::memory_order_acquire);
            if (!cells)
                continue;
            uint64_t n = cells->count.load(std::memory_order_relaxed);
            if (!n)
                continue;
            HistogramSnapshot part;
            part.count = n;
            part.sum = cells->sum.load(std::memory_order_relaxed);
            part.min = cells->min.load(std::memory_order_relaxed);
            part.max = cells->max.load(std::memory_order_relaxed);
            part.buckets.resize(HistogramLayout::bucketCount, 0);
            for (size_t b = 0; b < HistogramLayout::bucketCount; ++b)
                part.buckets[b] =
                    cells->buckets[b].load(std::memory_order_relaxed);
            merged.merge(part);
        }
        // Keep only the first to last non-empty bucket: callers that
        // keep a snapshot per run would otherwise pin every bucket of
        // the layout each.
        auto &b = merged.buckets;
        while (!b.empty() && b.back() == 0)
            b.pop_back();
        const size_t lead = static_cast<size_t>(
            std::find_if(b.begin(), b.end(),
                         [](uint64_t n) { return n != 0; }) -
            b.begin());
        b.erase(b.begin(), b.begin() + static_cast<ptrdiff_t>(lead));
        merged.firstBucket += lead;
        b.shrink_to_fit();
        out.histograms[histNames_[id]] = std::move(merged);
    }
    return out;
}

size_t
MetricsRegistry::shardCount() const
{
    std::lock_guard<std::mutex> lock(m_);
    return shards_.size();
}

// ---------------------------------------------------------------------
// Handles

void
Counter::inc(uint64_t n) const
{
    if (reg_)
        reg_->counterAdd(id_, n);
}

void
Gauge::set(int64_t v) const
{
    if (reg_)
        reg_->gaugeSet(id_, v);
}

void
Gauge::add(int64_t delta) const
{
    if (reg_)
        reg_->gaugeAdd(id_, delta);
}

void
Histogram::record(uint64_t value) const
{
    if (reg_)
        reg_->histogramRecord(id_, value);
}

} // namespace ssla::obs
