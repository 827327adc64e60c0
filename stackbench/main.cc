/**
 * @file
 * The stack benchmark's entry point:
 *
 *   stackbench --workload <chat|shared_prefix|long_context|compile_zoo>
 *              --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload, checks the program's outputs, and prints as its
 * last stdout line one JSON object: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. --trace 0 reports the
 * end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
 * Diagnostics go to stderr.
 */
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>

#include "bench.h"

namespace {

using namespace stackbench;

bool
parseArgs(int argc, char** argv, Options& options)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], value;
        size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            std::cerr << "missing value for " << arg << "\n";
            return false;
        }
        try {
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else {
                std::cerr << "unknown argument " << arg << "\n";
                return false;
            }
        } catch (const std::exception&) {
            std::cerr << "bad value for " << arg << ": " << value << "\n";
            return false;
        }
    }
    if (!isServingWorkload(options.workload) &&
        options.workload != "compile_zoo") {
        std::cerr << "unknown workload '" << options.workload
                  << "' (chat, shared_prefix, long_context, compile_zoo)\n";
        return false;
    }
    return true;
}

/** JSON-escaped string literal (metric names and units are plain). */
std::string
quoted(const std::string& s)
{
    return "\"" + s + "\"";
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) return 2;

    Result result;
    try {
        if (options.workload == "compile_zoo") {
            runCompileZoo(options, result);
        } else {
            runServing(options, result);
        }
    } catch (const std::exception& e) {
        std::cerr << "stackbench: " << options.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }

    // Every declared metric must be reported, and nothing else.
    const auto& expected =
        options.trace ? perLayerMetrics() : endToEndMetrics();
    bool complete = result.metrics.names().size() == expected.size();
    for (const auto& [name, unit] : expected) {
        if (!result.metrics.has(name) || result.metrics.unit(name) != unit) {
            std::cerr << "stackbench: metric " << name << " not reported\n";
            complete = false;
        }
    }
    if (!complete) return 1;

    std::string json = "{\"correct\": ";
    bool correct = result.ledger.correct();
    std::string metrics;
    for (const auto& [name, unit] : expected) {
        double value = result.metrics.value(name);
        if (!std::isfinite(value)) {
            std::cerr << "stackbench: metric " << name << " is not finite\n";
            return 1;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        if (!metrics.empty()) metrics += ", ";
        metrics += quoted(name) + ": {\"value\": " + buf +
                   ", \"unit\": " + quoted(unit) + "}";
    }
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.ledger.attempted());
    json += ", \"failed\": " + std::to_string(result.ledger.failed());
    json += ", \"metrics\": {" + metrics + "}}";
    std::cout << json << std::endl;
    return 0;
}
