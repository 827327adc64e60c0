/**
 * @file
 * Metrics, ledger, host clocks, statistics and seeded input helpers
 * shared by every workload (see bench.h).
 */
#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <iostream>

namespace stackbench {

void
Metrics::set(const std::string& name, double value, const std::string& unit)
{
    if (!values_.count(name)) order_.push_back(name);
    values_[name] = {value, unit};
}

double
Metrics::value(const std::string& name) const
{
    return values_.at(name).first;
}

const std::string&
Metrics::unit(const std::string& name) const
{
    return values_.at(name).second;
}

void
Ledger::operation(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        correct_ = false;
        std::cerr << "operation failed: " << what << "\n";
    }
}

void
Ledger::check(bool ok, const std::string& what)
{
    if (!ok) {
        correct_ = false;
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
}

double
hostSeconds()
{
    struct timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return (double)usage.ru_maxrss / 1024.0; // ru_maxrss is KiB on Linux
}

double
wallSeconds()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    size_t idx = (size_t)((double)(values.size() - 1) * p + 0.5);
    return values[idx];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) return 0.0;
    double log_sum = 0.0;
    for (double v : values) log_sum += std::log(v);
    return std::exp(log_sum / (double)values.size());
}

double
tailQuantile(size_t samples)
{
    for (double q : {0.99, 0.95, 0.90}) {
        if ((double)samples * (1.0 - q) >= 10.0) return q;
    }
    return 0.5;
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return (double)(next() >> 11) * 0x1.0p-53;
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    return lo + (int64_t)(next() % (uint64_t)(hi - lo + 1));
}

namespace {

/** A uniformly random permutation of 0..n-1 (Fisher-Yates). */
std::vector<int>
permutation(Rng& rng, int n)
{
    std::vector<int> p((size_t)n);
    for (int i = 0; i < n; ++i) p[i] = i;
    for (int i = n - 1; i > 0; --i) std::swap(p[i], p[rng.range(0, i)]);
    return p;
}

} // namespace

std::vector<double>
stratifiedUniforms(Rng& rng, int n, int block)
{
    RELAX_ICHECK(block >= 1 && n % block == 0)
        << "stratifiedUniforms: " << n << " not a multiple of " << block;
    int blocks = n / block;
    // Band s of block k gets fine stratum s * blocks + order_s[k].
    std::vector<std::vector<int>> order;
    for (int s = 0; s < block; ++s) order.push_back(permutation(rng, blocks));
    std::vector<double> u((size_t)n);
    for (int k = 0; k < blocks; ++k) {
        std::vector<int> bands = permutation(rng, block);
        for (int j = 0; j < block; ++j) {
            int s = bands[j];
            u[(size_t)(k * block + j)] =
                ((double)(s * blocks + order[s][k]) + rng.uniform()) / n;
        }
    }
    return u;
}

double
boundedPareto(double u, double lo, double hi, double alpha)
{
    double tail = 1.0 - std::pow(lo / hi, alpha);
    return lo / std::pow(1.0 - u * tail, 1.0 / alpha);
}

std::vector<int64_t>
randomTokens(Rng& rng, int64_t count, int64_t vocab)
{
    std::vector<int64_t> tokens((size_t)count);
    for (auto& t : tokens) t = rng.range(1, vocab - 1);
    return tokens;
}

double
matmulParams(const frontend::LlamaConfig& c)
{
    double proj = (double)(c.numHeads * c.headDim);
    return (double)c.numLayers * (4.0 * c.hiddenSize * proj +
                                  3.0 * c.hiddenSize * c.ffnSize) +
           (double)c.vocabSize * c.hiddenSize;
}

double
matmulWeightBytes(const frontend::LlamaConfig& c)
{
    return matmulParams(c) *
           (c.quant == frontend::Quant::kF16 ? 2.0 : 0.5625);
}

const std::vector<std::pair<std::string, std::string>>&
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
        {"ttft_p50_ms", "ms"},    {"ttft_tail_ms", "ms"},
        {"itl_p50_ms", "ms"},     {"itl_p99_ms", "ms"},
        {"output_tok_per_s", "tok/s"}, {"goodput_rps", "req/s"},
        {"decode_ms", "ms"},      {"prefill_ms", "ms"},
        {"plan_mb", "MiB"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>>&
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names =
        [] {
            std::vector<std::pair<std::string, std::string>> out = {
                {"frontend.build_ms", "ms"}, {"frontend.compile_ms", "ms"}};
            for (const std::string& pass : pipelinePassNames()) {
                out.push_back({"passes." + pass + ".ms", "ms"});
                out.push_back({"passes." + pass + ".bindings", "count"});
            }
            std::vector<std::pair<std::string, std::string>> rest = {
                {"passes.inplace_rewrites", "count"},
                {"passes.plan_reuse_hits", "count"},
                {"vm.instrs", "count"},
                {"vm.kernels_per_call", "count"},
                {"vm.library_calls_per_call", "count"},
                {"vm.invoke_host_us", "us"},
                {"vm.host_us_per_step", "us"},
                {"vm.serve_cpu_s", "s"},
                {"vm.graph_replay_rate", "ratio"},
                {"device.gemm_ms", "ms"},
                {"device.attention_ms", "ms"},
                {"device.kv_append_ms", "ms"},
                {"device.generated_ms", "ms"},
                {"device.launch_overhead_ms", "ms"},
                {"device.graph_capture_ms", "ms"},
                {"device.idle_ms", "ms"},
                {"device.kernel_launches", "count"},
                {"device.kernel_gb", "GB"},
                {"device.kernel_tflop", "TFLOP"},
                {"device.collectives", "count"},
                {"device.collective_ms", "ms"},
                {"device.collective_gb", "GB"},
                {"device.peak_mb", "MiB"},
                {"serve.steps", "count"},
                {"serve.rows_per_step", "rows"},
                {"serve.mixed_step_ratio", "ratio"},
                {"serve.queue_wait_p50_ms", "ms"},
                {"serve.queue_wait_p99_ms", "ms"},
                {"kv.reused_prompt_tokens", "tokens"},
                {"kv.reuse_ratio", "ratio"},
                {"kv.peak_pages", "pages"},
                {"kv.occupancy_mean", "ratio"},
                {"kv.preemptions", "count"},
                {"kv.recompute_tokens", "tokens"},
                {"router.imbalance", "ratio"},
                {"router.prefix_local_ratio", "ratio"},
            };
            out.insert(out.end(), rest.begin(), rest.end());
            return out;
        }();
    return names;
}

} // namespace stackbench
