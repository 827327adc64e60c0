/**
 * @file
 * Shared pieces of the stack benchmark: command-line options, the result
 * ledger (operations attempted / failed, correctness), named metrics,
 * host timing, seeded input generation and the per-layer helpers that
 * read the program's own trace and metrics. Each workload lives in its
 * own source file and fills one Result.
 */
#ifndef STACKBENCH_BENCH_H_
#define STACKBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "device/interconnect.h"
#include "frontend/compile.h"
#include "frontend/llama.h"
#include "support/trace.h"
#include "vm/vm.h"

namespace relax {
namespace serve {
class Engine;
} // namespace serve
} // namespace relax

namespace stackbench {

using relax::NDArray;
namespace device = relax::device;
namespace frontend = relax::frontend;
namespace vm = relax::vm;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Metrics by name with their unit, printed in insertion order. */
class Metrics
{
  public:
    void set(const std::string& name, double value, const std::string& unit);
    const std::vector<std::string>& names() const { return order_; }
    double value(const std::string& name) const;
    const std::string& unit(const std::string& name) const;
    bool has(const std::string& name) const { return values_.count(name); }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
};

/** Operations attempted and failed, and every correctness check. */
class Ledger
{
  public:
    /** Counts one operation; `ok` false marks it failed. Every
     *  operation ends in a check of the program's output, so a failed
     *  one also makes the run incorrect. */
    void operation(bool ok, const std::string& what = "");
    /** Records a correctness check of the program's output. */
    void check(bool ok, const std::string& what);

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

  private:
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    bool correct_ = true;
};

// --- host clocks ------------------------------------------------------------

/**
 * Host time: CPU seconds this process has used since it started. The
 * benchmark is single-threaded, so this is its wall time less the time
 * the OS gave to other processes — the host cost a faster VM, scheduler
 * or compiler moves, without the noise of a shared machine.
 */
double hostSeconds();
/** Monotonic wall clock in seconds (paces a run's rounds). */
double wallSeconds();
/** Peak resident set of this process, MiB. */
double peakRssMb();

// --- statistics -------------------------------------------------------------

/** Nearest-rank percentile, index round((n - 1) p), as Histogram does. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double geomean(const std::vector<double>& values);
/**
 * The highest of p99 / p95 / p90 with at least ten samples beyond it;
 * 0.5 when even p90 has fewer (fewer than 100 samples).
 */
double tailQuantile(size_t samples);

// --- seeded inputs ----------------------------------------------------------

/** A small, portable seeded generator (splitmix64). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform integer in [lo, hi]. */
    int64_t range(int64_t lo, int64_t hi);

  private:
    uint64_t state_;
};

/**
 * n stratified uniforms in [0, 1): one draw inside each of the n equal
 * strata, arranged so that every run of `block` consecutive values also
 * holds one value from each of `block` equal bands (n a multiple of
 * `block`; block == n is a plain shuffle). Inverse-CDF sampling through
 * them gives the target distribution, and every stretch of a trace the
 * whole mix, with far less seed-to-seed spread than independent draws —
 * what keeps tail latencies comparable across seeds at a few hundred
 * requests.
 */
std::vector<double> stratifiedUniforms(Rng& rng, int n, int block);

/** Inverse CDF of a Pareto(alpha) truncated to [lo, hi]. */
double boundedPareto(double u, double lo, double hi, double alpha);

/** `count` random token ids in [1, vocab). */
std::vector<int64_t> randomTokens(Rng& rng, int64_t count, int64_t vocab);

// --- roofline floors ---------------------------------------------------------

/** Parameters of every weight matrix a token passes through (the LM head
 *  and per-layer projections; the embedding is a lookup). */
double matmulParams(const frontend::LlamaConfig& config);
/** Bytes of those matrices as stored (f16, or q4 data + scales). */
double matmulWeightBytes(const frontend::LlamaConfig& config);

// --- per-layer helpers (layers.cc) -----------------------------------------

/** Relax bindings across every graph-level function of a module. */
int64_t countBindings(const relax::ir::IRModulePtr& module);

/** One compile rebuilt pass by pass from the public pass constructors. */
struct PassProfile
{
    std::vector<std::string> names;
    std::vector<double> ms;
    std::vector<int64_t> bindings;
    vm::ExecutablePtr exec;
};

/**
 * Runs compile()'s pipeline for `options` one pass at a time, timing
 * each pass and counting the IR after it, then builds the executable.
 */
PassProfile compileByPass(relax::ir::IRModulePtr module,
                          const frontend::CompileOptions& options);

/** True when both executables print identically, function by function. */
bool sameExecutable(const vm::Executable& a, const vm::Executable& b);

/** Every pass name compile() can run, in pipeline order. */
const std::vector<std::string>& pipelinePassNames();

/** Device-layer totals read from kernel / collective / graph spans. */
struct DeviceDigest
{
    double gemmUs = 0.0;
    double attentionUs = 0.0;
    double kvAppendUs = 0.0;
    double generatedUs = 0.0;
    double launchUs = 0.0;
    double captureUs = 0.0;
    int64_t launches = 0;
    int64_t libraryLaunches = 0;
    double bytes = 0.0;
    double flops = 0.0;
    int64_t collectives = 0;
    double collectiveUs = 0.0;
    double collectiveBytes = 0.0;

    void add(const relax::TraceRecorder& trace, double graph_capture_us);
};

/** Engine-lane digest: rows per step and enqueue-to-admit waits. */
struct EngineDigest
{
    int64_t stepSpans = 0;
    int64_t rows = 0;
    std::vector<double> queueWaitUs;

    void add(const relax::TraceRecorder& trace);
};

/**
 * Serving-layer totals of one round, summed over the engines that served
 * it; two rounds of one seed must produce equal totals.
 */
struct ServeTotals
{
    int64_t steps = 0;
    int64_t mixedSteps = 0;
    int64_t prompts = 0;   //!< Σ prompt lengths (added per request)
    int64_t prefilled = 0; //!< Σ RequestStats::prefillTokens (per request)
    int64_t preemptions = 0;
    int64_t peakPages = 0;
    int64_t replayBegins = 0;
    int64_t replays = 0;
    double occupancySum = 0.0;
    int64_t engines = 0;
    double idleUs = 0.0;
    double peakDeviceBytes = 0.0;

    /** Folds in one engine's step, KV, graph and device counters. */
    void addEngine(relax::serve::Engine& engine);
    bool operator==(const ServeTotals& o) const;
};

/** The vm.* host-per-step, serve.*, kv.* and device.* metrics of a round
 *  from its totals and the traced digests. */
void setServeMetrics(const ServeTotals& totals, const DeviceDigest& device,
                     const EngineDigest& engine, double serve_cpu_s,
                     Metrics& metrics);

/**
 * Arguments of one `decode_ragged` call: `batch` rows of `fresh` packed
 * tokens each on top of `context` committed positions, page tables over
 * metadata-only pools split over `shards` devices, then `weights`.
 */
std::vector<vm::Value> raggedArgs(const frontend::LlamaConfig& config,
                                  const std::vector<NDArray>& weights,
                                  int64_t batch, int64_t fresh,
                                  int64_t context, int shards = 1);

/**
 * A direct timing-mode `decode_ragged` call at a fixed batch and
 * context: host time per call (median of `calls` after warm-up),
 * kernels per call (RunStats) and library calls per call (one traced
 * call). `exec` is a ShardPass build when `tp` > 1.
 */
struct InvokeProbe
{
    double hostUs = 0.0;
    int64_t kernels = 0;
    int64_t libraryCalls = 0;
    int64_t instrs = 0;
};
InvokeProbe probeInvoke(const vm::ExecutablePtr& exec,
                        const frontend::LlamaConfig& config,
                        const device::DeviceSpec& spec, int tp,
                        const std::string& interconnect, int64_t batch,
                        int64_t context, int calls);

/** passes.<pass>.ms / .bindings summed over several compiles (a pass
 *  that did not run reads 0). */
void setPassMetrics(const std::vector<PassProfile>& profiles,
                    Metrics& metrics);

/** The device.* metrics from a digest plus idle time and peak memory. */
void setDeviceMetrics(const DeviceDigest& digest, double idle_us,
                      double peak_bytes, Metrics& metrics);

/** Every metric a run prints, (name, unit) in print order: the
 *  end-to-end set (untraced runs) and the per-layer set (traced runs).
 *  BENCHMARK.json lists the same names. */
const std::vector<std::pair<std::string, std::string>>& endToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics();

// --- workloads ---------------------------------------------------------------

struct Result
{
    Metrics metrics;
    Ledger ledger;
};

/** The serving workloads: chat, shared_prefix, long_context. */
bool isServingWorkload(const std::string& name);
void runServing(const Options& options, Result& result);
void runCompileZoo(const Options& options, Result& result);

} // namespace stackbench

#endif // STACKBENCH_BENCH_H_
