/**
 * @file
 * Every rule for BENCH_*.json artifacts: the per-bench schema check
 * (ssla_analyze --check) and the regression diff of two runs
 * (ssla_analyze --diff).
 *
 * Check rules, per the schema the document's "bench" field selects:
 *  - an unknown bench id is an error,
 *  - every gate path is present, bool-typed and true,
 *  - every required path is present, a "*" component fanning out over
 *    a non-empty array,
 *  - numeric leaves of required paths are finite (the parser already
 *    rejects NaN/Infinity literals; an overflowing exponent still
 *    reads as infinity).
 *
 * Diff rules:
 *  - a boolean that was true in the old run and false in the new one is
 *    a GATE REGRESSION (fatal),
 *  - a path present in the old run but missing from the new one is
 *    fatal (schemas only grow),
 *  - a numeric value whose relative delta exceeds the threshold is
 *    reported (informational — benches are noisy, a human or a tighter
 *    gate decides),
 *  - array length changes and new-only paths are informational.
 */

#ifndef SSLA_OBS_ANALYSIS_DIFF_HH
#define SSLA_OBS_ANALYSIS_DIFF_HH

#include <string>
#include <string_view>
#include <vector>

#include "obs/analysis/json.hh"
#include "obs/analysis/pass.hh"

namespace ssla::obs::analysis
{

/**
 * Parse one bench artifact and check it against its schema.
 * @return one line per defect (a parse error is one); empty when the
 *         artifact passes
 */
std::vector<std::string> checkBench(std::string_view text);

struct DiffResult
{
    int gateRegressions = 0;  ///< bool true -> false
    int missingPaths = 0;     ///< old path absent from new doc
    int numericDeltas = 0;    ///< |relative delta| > threshold
    int informational = 0;    ///< everything else worth a line

    bool failed() const { return gateRegressions + missingPaths > 0; }
};

/**
 * Diff two bench JSON documents into @p report ("bench_diff" section).
 * @param maxDeltaPct numeric reporting threshold, in percent
 */
DiffResult diffBench(const Json &oldDoc, const Json &newDoc,
                     double maxDeltaPct, Report &report);

} // namespace ssla::obs::analysis

#endif // SSLA_OBS_ANALYSIS_DIFF_HH
