/**
 * @file
 * ssla_analyze — the one checker for serve-bench telemetry: trace
 * analysis passes, the trace validator, and the BENCH_*.json rules.
 *
 * Three modes:
 *
 *   ssla_analyze [--passes a,b,...] [--metrics FILE] TRACE
 *       Ingest a Chrome trace (validating its shape; see ingestChrome),
 *       run the requested passes (default: all built-ins) and print the
 *       report. Output is deterministic: the same input produces
 *       byte-identical output, so CI can diff two runs. A malformed
 *       trace exits 2 with the event and the defect.
 *
 *   ssla_analyze --check FILE...
 *       Check BENCH_*.json artifacts against their bench's schema
 *       (gates present and true, required paths present, numbers
 *       finite). Exit 1 when any file fails.
 *
 *   ssla_analyze --diff OLD.json NEW.json [--max-delta PCT]
 *       Compare two BENCH_*.json artifacts. Exit 1 when a gate field
 *       regressed (bool true -> false) or a path disappeared; numeric
 *       deltas above the threshold (default 25%) are reported but not
 *       fatal.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/analysis/diff.hh"
#include "obs/analysis/model.hh"
#include "obs/analysis/pass.hh"

using namespace ssla::obs::analysis;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--passes a,b,...] [--metrics FILE] TRACE\n"
        "       %s --check BENCH.json...\n"
        "       %s --diff OLD.json NEW.json [--max-delta PCT]\n"
        "       %s --list\n",
        argv0, argv0, argv0, argv0);
    return 2;
}

int
listPasses()
{
    PassRegistry registry = makeBuiltinRegistry();
    for (const Pass *p : registry.all())
        std::printf("%-18s %s\n", p->name(), p->description());
    return 0;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= csv.size()) {
        size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(csv.substr(pos));
            break;
        }
        out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

int
runCheck(const std::vector<std::string> &paths)
{
    bool failed = false;
    for (const auto &path : paths) {
        std::vector<std::string> defects;
        try {
            defects = checkBench(readFileOrThrow(path));
        } catch (const IngestError &) {
            defects = {"cannot read file"};
        }
        for (const auto &d : defects)
            std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                         d.c_str());
        if (defects.empty())
            std::printf("OK   %s\n", path.c_str());
        failed |= !defects.empty();
    }
    return failed ? 1 : 0;
}

int
runDiff(const std::string &oldPath, const std::string &newPath,
        double maxDeltaPct)
{
    Json oldDoc = parseJson(readFileOrThrow(oldPath));
    Json newDoc = parseJson(readFileOrThrow(newPath));
    Report report;
    auto &sec = report.section("bench_diff");
    sec.lines.push_back("old: " + oldPath);
    sec.lines.push_back("new: " + newPath);
    DiffResult result = diffBench(oldDoc, newDoc, maxDeltaPct, report);
    std::fputs(report.render().c_str(), stdout);
    return result.failed() ? 1 : 0;
}

int
runAnalysis(const std::string &tracePath,
            const std::string &metricsPath,
            const std::vector<std::string> &passNames)
{
    Corpus corpus = ingestTraceFile(tracePath);
    if (!metricsPath.empty())
        ingestPrometheus(readFileOrThrow(metricsPath), corpus);

    PassRegistry registry = makeBuiltinRegistry();
    std::vector<const Pass *> passes;
    if (passNames.empty()) {
        passes = registry.all();
    } else {
        for (const auto &name : passNames) {
            const Pass *p = registry.find(name);
            if (!p) {
                std::fprintf(stderr,
                             "ssla_analyze: unknown pass '%s' "
                             "(--list shows available passes)\n",
                             name.c_str());
                return 2;
            }
            passes.push_back(p);
        }
    }

    std::printf("ssla_analyze: %s (%zu passes)\n\n",
                tracePath.c_str(), passes.size());
    Report report;
    for (const Pass *p : passes)
        p->run(corpus, report);
    std::fputs(report.render().c_str(), stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    std::string metricsPath;
    std::string diffOld, diffNew;
    std::vector<std::string> passNames;
    double maxDeltaPct = 25.0;
    bool diffMode = false;
    bool checkMode = false;

    for (int k = 1; k < argc; ++k) {
        const std::string arg = argv[k];
        auto next = [&]() -> const char * {
            if (k + 1 >= argc) {
                std::fprintf(stderr,
                             "ssla_analyze: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++k];
        };
        if (arg == "--list")
            return listPasses();
        if (arg == "--passes") {
            passNames = splitCsv(next());
        } else if (arg == "--metrics") {
            metricsPath = next();
        } else if (arg == "--max-delta") {
            const char *text = next();
            char *end = nullptr;
            maxDeltaPct = std::strtod(text, &end);
            if (end == text || *end != '\0' ||
                !std::isfinite(maxDeltaPct) || maxDeltaPct < 0) {
                std::fprintf(stderr,
                             "ssla_analyze: --max-delta '%s' is not a "
                             "finite non-negative percentage\n",
                             text);
                return 2;
            }
        } else if (arg == "--check") {
            checkMode = true;
        } else if (arg == "--diff") {
            diffMode = true;
            diffOld = next();
            diffNew = next();
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "ssla_analyze: unknown option %s\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }

    try {
        if (diffMode && !checkMode && files.empty())
            return runDiff(diffOld, diffNew, maxDeltaPct);
        if (checkMode && !diffMode && !files.empty())
            return runCheck(files);
        if (!diffMode && !checkMode && files.size() == 1)
            return runAnalysis(files[0], metricsPath, passNames);
        return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ssla_analyze: %s\n", e.what());
        return 2;
    }
}
