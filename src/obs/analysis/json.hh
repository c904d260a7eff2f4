/**
 * @file
 * Minimal strict JSON value parser for the trace-analysis layer.
 *
 * The repo's producers emit JSON through bench::JsonWriter and the obs
 * exporters; this is the matching consumer: a small recursive-descent
 * parser over an immutable value tree, with line/column error
 * reporting. It exists so the analyzer has zero external dependencies.
 *
 * Deliberately strict where the producers are strict: no NaN/Infinity
 * literals, no comments, no trailing commas. Integers that fit int64
 * or uint64 are kept exactly (cycle counters exceed the 2^53 double
 * mantissa), doubles otherwise.
 */

#ifndef SSLA_OBS_ANALYSIS_JSON_HH
#define SSLA_OBS_ANALYSIS_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ssla::obs::analysis
{

/** Parse failure, with 1-based line/column of the offending input. */
class JsonError : public std::runtime_error
{
  public:
    JsonError(std::string msg, size_t line, size_t column)
        : std::runtime_error("line " + std::to_string(line) +
                             ", column " + std::to_string(column) +
                             ": " + msg),
          line_(line), column_(column)
    {
    }

    size_t line() const { return line_; }
    size_t column() const { return column_; }

  private:
    size_t line_;
    size_t column_;
};

/** One immutable JSON value. Object member order is preserved. */
class Json
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Int,  ///< integral literal, exact in i (and u when >= 0)
        Uint, ///< integral literal > INT64_MAX, exact in u
        Double,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, Json>;

    Type type = Type::Null;
    bool b = false;
    int64_t i = 0;
    uint64_t u = 0;
    double d = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::vector<Member> obj;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    bool
    isNumber() const
    {
        return type == Type::Int || type == Type::Uint ||
               type == Type::Double;
    }

    /** Numeric value as double (lossy above 2^53 — fine for deltas). */
    double
    number() const
    {
        switch (type) {
        case Type::Int: return static_cast<double>(i);
        case Type::Uint: return static_cast<double>(u);
        case Type::Double: return d;
        default: return 0.0;
        }
    }

    /** Numeric value as uint64; negative/fractional clamp to 0. */
    uint64_t
    asU64() const
    {
        switch (type) {
        case Type::Int: return i < 0 ? 0 : static_cast<uint64_t>(i);
        case Type::Uint: return u;
        case Type::Double: return d < 0 ? 0 : static_cast<uint64_t>(d);
        default: return 0;
        }
    }

    /** Member lookup; null when absent or not an object. */
    const Json *
    find(std::string_view key) const
    {
        if (type != Type::Object)
            return nullptr;
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** find() that also requires the member to be a string. */
    const std::string *
    findString(std::string_view key) const
    {
        const Json *v = find(key);
        return v && v->isString() ? &v->str : nullptr;
    }

    /** Numeric member as uint64, or @p fallback when absent. */
    uint64_t
    findU64(std::string_view key, uint64_t fallback = 0) const
    {
        const Json *v = find(key);
        return v && v->isNumber() ? v->asU64() : fallback;
    }

    /** Numeric member as double, or @p fallback when absent. */
    double
    findNumber(std::string_view key, double fallback = 0.0) const
    {
        const Json *v = find(key);
        return v && v->isNumber() ? v->number() : fallback;
    }
};

/**
 * Parse exactly one JSON document from @p text (trailing whitespace
 * allowed, anything else is an error).
 *
 * @throws JsonError on malformed input
 */
Json parseJson(std::string_view text);

} // namespace ssla::obs::analysis

#endif // SSLA_OBS_ANALYSIS_JSON_HH
