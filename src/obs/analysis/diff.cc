#include "obs/analysis/diff.hh"

#include <cmath>

namespace ssla::obs::analysis
{

namespace
{

/** Gate and required paths for one bench id. */
struct BenchSchema
{
    std::string_view bench;
    std::vector<std::string_view> gates;
    std::vector<std::string_view> required;
};

const BenchSchema kSchemas[] = {
    {"serve_scale",
     {"all_completed"},
     {"results.*.full_handshakes", "results.*.elapsed_sec",
      "results.*.bulk_mb_per_sec", "metrics_overhead.overhead_ratio"}},
    // The results array mixes per-rate cells with per-mode summary rows
    // (monotone_goodput), so only the shared key is required.
    {"serve_degradation",
     {"all_accounted", "clean_baseline_ok"},
     {"results.*.pool_mode"}},
    // Gated by its exit code on per-cell wire identity; the artifact
    // exposes the per-cell flag.
    {"kx_matrix",
     {},
     {"cells.*.wire_identical", "cells.*.layers_kc.total"}},
    {"bn_backend",
     {"gate.pass", "gate.rsa_identical", "gate.dh_identical",
      "gate.modexp_identical", "gate.bn64_faster"},
     {"cycle_hz", "modexp.*.bits", "modexp.*.bn32_ms", "modexp.*.bn64_ms",
      "modexp.*.speedup", "profiles.*.backend",
      "profiles.*.rows.*.function", "profiles.*.rows.*.pct"}},
    {"serve_overload",
     {"gate.pass", "gate.adaptive_goodput_wins", "gate.no_hung_sessions",
      "gate.all_accounted"},
     {"rsa_op_ms", "abandon_ms", "results.*.policy",
      "results.*.goodput_per_sec", "results.*.goodput_fraction",
      "results.*.hs_p99_us", "results.*.wasted_work_fraction",
      "chaos.*.thread_restarts", "chaos.*.hung_sessions"}},
    {"serve_throughput",
     {"gate.pass", "gate.wire_identical", "gate.steady_state_zero",
      "gate.engine_completed"},
     {"results.*.record_layer.records_per_sec",
      "results.*.record_layer.mb_per_sec",
      "results.*.serve_engine.records_per_sec_per_worker",
      "results.*.serve_engine.mb_per_sec_per_worker",
      "steady_state.*.scratch_grows", "steady_state.*.pending_spills",
      "wire_identity.*.identical"}},
};

/**
 * Every value at dotted @p path, a "*" component fanning out over a
 * non-empty array. Returns false with @p err set when a step is absent.
 */
bool
resolve(const Json &doc, std::string_view path,
        std::vector<const Json *> &out, std::string &err)
{
    out = {&doc};
    size_t pos = 0;
    for (;;) {
        const size_t dot = path.find('.', pos);
        const std::string_view part = path.substr(
            pos, dot == std::string_view::npos ? dot : dot - pos);
        std::vector<const Json *> next;
        for (const Json *node : out) {
            if (part == "*") {
                if (!node->isArray() || node->arr.empty()) {
                    err = std::string(path) + ": expected non-empty list";
                    return false;
                }
                for (const Json &elem : node->arr)
                    next.push_back(&elem);
            } else if (const Json *child = node->find(part)) {
                next.push_back(child);
            } else {
                err = std::string(path) + ": missing '" +
                      std::string(part) + "'";
                return false;
            }
        }
        out = std::move(next);
        if (dot == std::string_view::npos)
            return true;
        pos = dot + 1;
    }
}

struct DiffWalk
{
    double maxDeltaPct;
    Report::Section *sec;
    DiffResult result;

    void
    note(const std::string &line)
    {
        sec->lines.push_back(line);
    }

    void
    walk(const std::string &path, const Json &oldV, const Json &newV)
    {
        // Type change is handled as a gate/fatal only for bools; for
        // anything else it reads as an informational mismatch.
        if (oldV.isBool()) {
            if (!newV.isBool()) {
                ++result.informational;
                note(strf("  CHANGED %s: bool -> non-bool",
                          path.c_str()));
                return;
            }
            if (oldV.b && !newV.b) {
                ++result.gateRegressions;
                note(strf("  GATE REGRESSION %s: true -> false",
                          path.c_str()));
            } else if (!oldV.b && newV.b) {
                ++result.informational;
                note(strf("  improved %s: false -> true",
                          path.c_str()));
            }
            return;
        }
        if (oldV.isNumber()) {
            if (!newV.isNumber()) {
                ++result.informational;
                note(strf("  CHANGED %s: number -> non-number",
                          path.c_str()));
                return;
            }
            const double a = oldV.number();
            const double b = newV.number();
            if (a == b)
                return;
            const double delta =
                a != 0.0 ? 100.0 * (b - a) / std::fabs(a)
                         : (b > 0 ? 1e9 : -1e9);
            if (std::fabs(delta) > maxDeltaPct) {
                ++result.numericDeltas;
                note(strf("  DELTA %s: %g -> %g (%+.1f%%)",
                          path.c_str(), a, b, delta));
            }
            return;
        }
        if (oldV.isString()) {
            if (!newV.isString() || oldV.str != newV.str) {
                ++result.informational;
                note(strf("  changed %s: \"%s\" -> \"%s\"",
                          path.c_str(), oldV.str.c_str(),
                          newV.isString() ? newV.str.c_str()
                                          : "<non-string>"));
            }
            return;
        }
        if (oldV.isArray()) {
            if (!newV.isArray()) {
                ++result.informational;
                note(strf("  CHANGED %s: array -> non-array",
                          path.c_str()));
                return;
            }
            if (oldV.arr.size() != newV.arr.size()) {
                ++result.informational;
                note(strf("  length %s: %zu -> %zu (comparing common "
                          "prefix)",
                          path.c_str(), oldV.arr.size(),
                          newV.arr.size()));
            }
            const size_t n =
                std::min(oldV.arr.size(), newV.arr.size());
            for (size_t k = 0; k < n; ++k)
                walk(strf("%s[%zu]", path.c_str(), k), oldV.arr[k],
                     newV.arr[k]);
            return;
        }
        if (oldV.isObject()) {
            if (!newV.isObject()) {
                ++result.informational;
                note(strf("  CHANGED %s: object -> non-object",
                          path.c_str()));
                return;
            }
            for (const auto &[key, val] : oldV.obj) {
                const std::string sub =
                    path.empty() ? key : path + "." + key;
                const Json *other = newV.find(key);
                if (!other) {
                    ++result.missingPaths;
                    note(strf("  MISSING %s: present in old run, "
                              "absent in new",
                              sub.c_str()));
                    continue;
                }
                walk(sub, val, *other);
            }
            for (const auto &[key, val] : newV.obj) {
                (void)val;
                if (!oldV.find(key)) {
                    ++result.informational;
                    note(strf("  new field %s.%s",
                              path.empty() ? "(root)" : path.c_str(),
                              key.c_str()));
                }
            }
            return;
        }
        // Null old value: nothing to compare.
    }
};

} // anonymous namespace

std::vector<std::string>
checkBench(std::string_view text)
{
    Json doc;
    try {
        doc = parseJson(text);
    } catch (const JsonError &e) {
        return {std::string("invalid JSON: ") + e.what()};
    }
    const std::string *bench = doc.findString("bench");
    const BenchSchema *schema = nullptr;
    for (const BenchSchema &sc : kSchemas)
        if (bench && sc.bench == *bench)
            schema = &sc;
    if (!schema)
        return {"unknown bench id " +
                (bench ? "\"" + *bench + "\"" : std::string("(none)"))};

    std::vector<std::string> defects;
    std::vector<const Json *> values;
    std::string err;
    for (std::string_view gate : schema->gates) {
        if (!resolve(doc, gate, values, err)) {
            defects.push_back("gate " + err);
            continue;
        }
        for (const Json *v : values) {
            if (!v->isBool())
                defects.push_back("gate " + std::string(gate) +
                                  " is not a bool");
            else if (!v->b)
                defects.push_back("gate " + std::string(gate) +
                                  " is false");
        }
    }
    for (std::string_view req : schema->required) {
        if (!resolve(doc, req, values, err)) {
            defects.push_back(err);
            continue;
        }
        for (const Json *v : values)
            if (v->isNumber() && !std::isfinite(v->number())) {
                defects.push_back(std::string(req) +
                                  ": non-finite number");
                break;
            }
    }
    return defects;
}

DiffResult
diffBench(const Json &oldDoc, const Json &newDoc, double maxDeltaPct,
          Report &report)
{
    auto &sec = report.section("bench_diff");
    sec.lines.push_back(
        strf("numeric threshold: %.1f%%", maxDeltaPct));
    DiffWalk walk{maxDeltaPct, &sec, {}};
    walk.walk("", oldDoc, newDoc);
    sec.lines.push_back(strf(
        "gate_regressions=%d missing_paths=%d numeric_deltas=%d "
        "informational=%d => %s",
        walk.result.gateRegressions, walk.result.missingPaths,
        walk.result.numericDeltas, walk.result.informational,
        walk.result.failed() ? "FAIL" : "OK"));
    return walk.result;
}

} // namespace ssla::obs::analysis
