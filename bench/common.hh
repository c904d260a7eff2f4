/**
 * @file
 * Shared helpers for the table/figure reproduction benches: cycle
 * timing with repetition, fixtures (keys, certificates) and common
 * formatting.
 */

#ifndef SSLA_BENCH_COMMON_HH
#define SSLA_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "crypto/provider.hh"
#include "crypto/rsa.hh"
#include "pki/cert.hh"
#include "util/cycles.hh"
#include "util/rng.hh"

namespace ssla::bench
{

/**
 * Spin for ~100ms so the core reaches its sustained frequency before
 * cycle measurements start (TSC ticks at constant rate, so work done
 * at a ramping clock reads as inflated cycle counts).
 */
inline void
warmUpCpu()
{
    uint64_t t0 = rdcycles();
    uint64_t budget = static_cast<uint64_t>(cycleHz() * 0.1);
    volatile uint64_t sink = 0;
    while (rdcycles() - t0 < budget)
        sink = sink * 31 + 7;
}

/** Median of per-call cycle measurements over @p reps runs. */
template <class F>
uint64_t
medianCycles(F &&fn, int reps = 15)
{
    std::vector<uint64_t> samples;
    samples.reserve(reps);
    for (int i = 0; i < reps; ++i) {
        uint64_t t0 = rdcycles();
        fn();
        samples.push_back(rdcycles() - t0);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** Average cycles per call over a timed batch of @p iters calls. */
template <class F>
double
cyclesPerCall(F &&fn, int iters)
{
    // Warm up caches and branch predictors.
    fn();
    uint64_t t0 = rdcycles();
    for (int i = 0; i < iters; ++i)
        fn();
    return static_cast<double>(rdcycles() - t0) / iters;
}

/** Throughput in MB/s for a kernel processing @p bytes per call. */
template <class F>
double
throughputMBps(F &&fn, size_t bytes, int iters)
{
    double cycles = cyclesPerCall(fn, iters);
    double seconds = cycles / cycleHz();
    return (static_cast<double>(bytes) / 1e6) / seconds;
}

/**
 * Provider the benches construct cipher/digest objects through: the
 * bare scalar kernels, so kernel measurements carry no
 * instrumentation wrappers.
 */
inline crypto::Provider &
benchProvider()
{
    return crypto::scalarProvider();
}

/**
 * A deterministic RSA key of @p bits (cached per size), on bn32: the
 * paper-era engine the Table 7/8/9 anatomy is anchored to.
 */
inline const crypto::RsaKeyPair &
benchKey(size_t bits)
{
    static crypto::RsaKeyPair k512 = crypto::rsaGenerateKey(
        512,
        [](uint8_t *o, size_t l) {
            static Xoshiro256 rng(0xb512);
            rng.fill(o, l);
        });
    static crypto::RsaKeyPair k1024 = crypto::rsaGenerateKey(
        1024,
        [](uint8_t *o, size_t l) {
            static Xoshiro256 rng(0xb1024);
            rng.fill(o, l);
        });
    return bits == 512 ? k512 : k1024;
}

/** Deterministic pseudo-random payload of @p len bytes. */
inline Bytes
benchPayload(size_t len, uint64_t seed = 0xda7a)
{
    Xoshiro256 rng(seed);
    return rng.bytes(len);
}

/**
 * Streaming JSON emitter shared by the machine-readable benches
 * (bench_serve_scale, bench_serve_throughput, ...), so the BENCH_*.json
 * documents all follow one formatting discipline: two-space indent,
 * commas managed by nesting level, fixed-precision doubles.
 *
 * Usage:
 *   JsonWriter j;                     // writes to stdout
 *   j.beginObject();
 *   j.field("bench", "serve_scale").field("smoke", false);
 *   j.beginArray("results");
 *   j.beginObject().field("workers", 4).endObject();
 *   j.endArray();
 *   j.endObject();                    // prints trailing newline
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::FILE *out = stdout) : out_(out) {}

    JsonWriter &
    beginObject(const char *key = nullptr)
    {
        prefix(key);
        std::fputc('{', out_);
        depth_.push_back(0);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        closeScope('}');
        return *this;
    }

    JsonWriter &
    beginArray(const char *key = nullptr)
    {
        prefix(key);
        std::fputc('[', out_);
        depth_.push_back(0);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        closeScope(']');
        return *this;
    }

    JsonWriter &
    field(const char *key, const char *value)
    {
        prefix(key);
        quoted(value);
        return *this;
    }

    JsonWriter &
    field(const char *key, const std::string &value)
    {
        return field(key, value.c_str());
    }

    JsonWriter &
    field(const char *key, bool value)
    {
        prefix(key);
        std::fputs(value ? "true" : "false", out_);
        return *this;
    }

    JsonWriter &
    field(const char *key, double value, int precision = 3)
    {
        prefix(key);
        std::fprintf(out_, "%.*f", precision, value);
        return *this;
    }

    JsonWriter &
    field(const char *key, uint64_t value)
    {
        prefix(key);
        std::fprintf(out_, "%llu",
                     static_cast<unsigned long long>(value));
        return *this;
    }

    JsonWriter &
    field(const char *key, int value)
    {
        prefix(key);
        std::fprintf(out_, "%d", value);
        return *this;
    }

    /** Bare array element (string). */
    JsonWriter &
    element(const char *value)
    {
        prefix(nullptr);
        quoted(value);
        return *this;
    }

    /** Bare array element (integer). */
    JsonWriter &
    element(uint64_t value)
    {
        prefix(nullptr);
        std::fprintf(out_, "%llu",
                     static_cast<unsigned long long>(value));
        return *this;
    }

    /** Bare array element (fixed-precision double). */
    JsonWriter &
    element(double value, int precision = 3)
    {
        prefix(nullptr);
        std::fprintf(out_, "%.*f", precision, value);
        return *this;
    }

  private:
    void
    prefix(const char *key)
    {
        if (!depth_.empty()) {
            if (depth_.back()++)
                std::fputc(',', out_);
            std::fputc('\n', out_);
            for (size_t i = 0; i < depth_.size(); ++i)
                std::fputs("  ", out_);
        }
        if (key) {
            quoted(key);
            std::fputs(": ", out_);
        }
    }

    void
    closeScope(char bracket)
    {
        bool had_members = depth_.back() > 0;
        depth_.pop_back();
        if (had_members) {
            std::fputc('\n', out_);
            for (size_t i = 0; i < depth_.size(); ++i)
                std::fputs("  ", out_);
        }
        std::fputc(bracket, out_);
        if (depth_.empty())
            std::fputc('\n', out_);
    }

    void
    quoted(const char *s)
    {
        std::fputc('"', out_);
        for (; *s; ++s) {
            unsigned char c = static_cast<unsigned char>(*s);
            switch (c) {
              case '"':
                std::fputs("\\\"", out_);
                break;
              case '\\':
                std::fputs("\\\\", out_);
                break;
              case '\b':
                std::fputs("\\b", out_);
                break;
              case '\f':
                std::fputs("\\f", out_);
                break;
              case '\n':
                std::fputs("\\n", out_);
                break;
              case '\r':
                std::fputs("\\r", out_);
                break;
              case '\t':
                std::fputs("\\t", out_);
                break;
              default:
                // RFC 8259: control characters MUST be escaped; a raw
                // one (say a stray byte in a name) would corrupt the
                // whole BENCH_*.json document.
                if (c < 0x20)
                    std::fprintf(out_, "\\u%04x", c);
                else
                    std::fputc(c, out_);
                break;
            }
        }
        std::fputc('"', out_);
    }

    std::FILE *out_;
    std::vector<int> depth_; ///< member count per open scope
};

} // namespace ssla::bench

#endif // SSLA_BENCH_COMMON_HH
