/**
 * @file
 * Always-on metrics registry: named counters, gauges and log-scale
 * latency histograms, sharded per thread so the serving hot path never
 * contends on a shared cache line.
 *
 * The paper's whole contribution is measurement; this registry is the
 * production counterpart of the bench-only PerfContext. Library code
 * resolves a handle once (a string lookup under a mutex) and then
 * increments through it forever (a relaxed atomic add into the calling
 * thread's own shard). Snapshots aggregate across shards, so reads are
 * approximately consistent — the right trade for monitoring.
 *
 * Design points:
 *  - Counters are monotonic uint64 adds, sharded per thread. A thread's
 *    cells live as long as the registry, so worker-thread exit never
 *    loses counts.
 *  - Gauges are shared atomic int64 set/add (a per-thread "set" has no
 *    meaningful aggregate).
 *  - Histograms use a log-linear bucket layout (32 sub-buckets per
 *    power of two): values 0..63 are exact, larger values land in
 *    buckets of relative width 1/32 (~3%), which is tighter than the
 *    run-to-run noise of anything we measure. Bucket cells are
 *    per-thread and merged on snapshot; merge(a,b) is exact (it is a
 *    vector add), which the tests assert against record-all.
 *  - A disabled registry (setEnabled(false)) reduces every operation
 *    to one relaxed load + branch — the A/B knob behind the "metrics
 *    overhead within 3%" acceptance bench.
 */

#ifndef SSLA_OBS_METRICS_HH
#define SSLA_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ssla::obs
{

class MetricsRegistry;

/** Log-linear histogram bucket geometry (shared by cells/snapshots). */
struct HistogramLayout
{
    /** Sub-bucket resolution: 2^5 = 32 buckets per power of two. */
    static constexpr unsigned subBits = 5;
    static constexpr uint64_t subCount = 1ull << subBits; // 32
    /** Values below 2*subCount get unit-width buckets. */
    static constexpr uint64_t linearMax = 2 * subCount; // 64
    /** Octaves with log-linear buckets: exponents 6..63. */
    static constexpr size_t octaves = 64 - (subBits + 1); // 58
    static constexpr size_t bucketCount =
        linearMax + octaves * subCount; // 64 + 58*32 = 1920

    /** Bucket index for a value (total order, powers of two exact). */
    static size_t bucketIndex(uint64_t v);
    /** Inclusive lower bound of bucket @p i. */
    static uint64_t lowerBound(size_t i);
    /** Exclusive upper bound of bucket @p i (saturates at 2^64-1). */
    static uint64_t upperBound(size_t i);
};

/**
 * An aggregated histogram: bucket counts plus count/sum/min/max.
 * Percentiles interpolate linearly inside the containing bucket, so
 * the error is bounded by one bucket width (<= ~3% relative).
 */
struct HistogramSnapshot
{
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    /** Layout index (HistogramLayout) of buckets[0]. */
    size_t firstBucket = 0;
    /** Per-bucket counts from firstBucket on; a registry snapshot
     *  keeps only its first to last non-empty bucket (none when
     *  count == 0). */
    std::vector<uint64_t> buckets;

    /** Count in layout bucket @p i (0 outside the kept range). */
    uint64_t
    bucket(size_t i) const
    {
        return i >= firstBucket && i - firstBucket < buckets.size()
                   ? buckets[i - firstBucket]
                   : 0;
    }

    double
    mean() const
    {
        return count ? double(sum) / double(count) : 0.0;
    }

    /** Value at percentile @p p in [0,100], clamped into [min,max]. */
    double percentile(double p) const;

    /** Exact merge: afterwards this equals record-all of both inputs. */
    void merge(const HistogramSnapshot &other);
};

/** Aggregated view of a whole registry at one instant. */
struct MetricsSnapshot
{
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Counter value by name (0 when absent). */
    uint64_t counter(const std::string &name) const;
    /** Histogram by name (empty snapshot when absent). */
    HistogramSnapshot histogram(const std::string &name) const;
};

/**
 * Cheap copyable handle to a registered counter. A default-constructed
 * (or overflowed-registry) handle is valid to use and does nothing.
 * Handles may be shared freely across threads; each increment lands in
 * the calling thread's shard.
 */
class Counter
{
  public:
    Counter() = default;
    void inc(uint64_t n = 1) const;
    bool valid() const { return reg_ != nullptr; }

  private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry *reg, uint32_t id) : reg_(reg), id_(id) {}
    MetricsRegistry *reg_ = nullptr;
    uint32_t id_ = 0;
};

/** Handle to a shared gauge (set/add semantics, may go negative). */
class Gauge
{
  public:
    Gauge() = default;
    void set(int64_t v) const;
    void add(int64_t delta) const;
    bool valid() const { return reg_ != nullptr; }

  private:
    friend class MetricsRegistry;
    Gauge(MetricsRegistry *reg, uint32_t id) : reg_(reg), id_(id) {}
    MetricsRegistry *reg_ = nullptr;
    uint32_t id_ = 0;
};

/** Handle to a latency histogram. record() is wait-free. */
class Histogram
{
  public:
    Histogram() = default;
    void record(uint64_t value) const;
    bool valid() const { return reg_ != nullptr; }

  private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry *reg, uint32_t id) : reg_(reg), id_(id) {}
    MetricsRegistry *reg_ = nullptr;
    uint32_t id_ = 0;
};

/**
 * The registry. Metric registration (counter()/gauge()/histogram()) is
 * mutex-protected and idempotent by name; the returned handles are the
 * hot path. Instances are independent — benches hand the ServeEngine a
 * fresh registry per cell for clean per-cell numbers; everything else
 * defaults to the process-wide global().
 */
class MetricsRegistry
{
  public:
    /** Capacity bounds; registrations beyond them yield no-op handles
     *  (a warning is logged once per registry). Fixed capacities keep
     *  the per-thread shards reallocation-free, which is what makes
     *  the increment path lock-free. */
    static constexpr size_t maxCounters = 512;
    static constexpr size_t maxGauges = 64;
    static constexpr size_t maxHistograms = 64;

    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide always-on registry (never destroyed). */
    static MetricsRegistry &global();

    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    Histogram histogram(const std::string &name);

    /**
     * Master switch: when disabled, every handle operation is a single
     * relaxed load + branch. Registration still works.
     */
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Aggregate all shards into a consistent-enough snapshot. */
    MetricsSnapshot snapshot() const;

    /**
     * Threads that have written to this registry: each got a shard
     * that lives as long as the registry (for global(), forever).
     */
    size_t shardCount() const;

  private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;

    struct HistCells;
    struct ThreadShard;

    ThreadShard &myShard();
    void counterAdd(uint32_t id, uint64_t n);
    void gaugeSet(uint32_t id, int64_t v);
    void gaugeAdd(uint32_t id, int64_t delta);
    void histogramRecord(uint32_t id, uint64_t value);
    void warnOverflowOnce(const char *kind);

    mutable std::mutex m_;
    std::vector<std::unique_ptr<ThreadShard>> shards_;
    std::unordered_map<std::string, uint32_t> counterIds_;
    std::unordered_map<std::string, uint32_t> gaugeIds_;
    std::unordered_map<std::string, uint32_t> histIds_;
    std::vector<std::string> counterNames_;
    std::vector<std::string> gaugeNames_;
    std::vector<std::string> histNames_;
    std::unique_ptr<std::atomic<int64_t>[]> gauges_;
    std::atomic<bool> enabled_{true};
    bool overflowWarned_ = false;
    const uint64_t serial_; ///< unique per instance (TLS cache key)
};

} // namespace ssla::obs

#endif // SSLA_OBS_METRICS_HH
