/**
 * @file
 * compile_zoo: the compiler and its generated code across models,
 * quantization and targets, plus the independent correctness oracle.
 *
 * A round builds the IR of every zoo entry (frontend::buildLlama),
 * compiles it (frontend::compile), then runs the generated
 * code once in timing mode at fixed decode and prefill shapes on the
 * simulated device (decode_ms, prefill_ms) and sums the static
 * activation plans (plan_mb, the Table 2 metric). The zoo is Llama3-8B,
 * Gemma-1.1-7B, Qwen2-7B and Llama3-8B-q4 on a library-rich CUDA device
 * (rtx4090) and a GEMM-library device without execution graphs
 * (radeon7900xtx), and the q4 variants on a library-free phone (s24),
 * where the f16 weights do not fit.
 *
 * Each desktop entry's executable then serves a seeded stream of 32
 * short requests (Poisson, 5 req/s) through serve::Router over one
 * serve::Engine in timing mode; the serving metrics of this workload
 * (TTFT, ITL, tokens/s, goodput) come from those streams —
 * the generated code of every target behind the real scheduler.
 *
 * The oracle compiles LlamaConfig::tiny() for rtx4090 (library-lowered
 * attention and GEMM) and s24 (generated kernels only), runs prefill in
 * data mode against the plain-loop reference of reference.cc, and
 * serves a seeded request set through serve::Router / serve::Engine in
 * data mode, whose greedy tokens must equal the reference's greedy
 * continuation.
 */
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.h"
#include "passes/alias_analysis.h"
#include "reference.h"
#include "serve/router.h"

namespace stackbench {

namespace serve = relax::serve;

namespace {

/** Logits of the compiled tiny model must match the reference within
 *  this absolute tolerance (logits are O(0.1)); greedy tokens are
 *  compared wherever the reference's top-two margin exceeds it. */
constexpr double kLogitTolerance = 1e-6;

struct ZooEntry
{
    frontend::LlamaConfig model;
    device::DeviceSpec spec;
};

std::vector<ZooEntry>
zooEntries()
{
    using frontend::LlamaConfig;
    std::vector<LlamaConfig> models = {
        LlamaConfig::llama3_8b(), LlamaConfig::gemma1_1_7b(),
        LlamaConfig::qwen2_7b(),
        LlamaConfig::llama3_8b().withQuant(frontend::Quant::kQ4)};
    std::vector<ZooEntry> zoo;
    for (const char* name : {"rtx4090", "radeon7900xtx", "s24"}) {
        device::DeviceSpec spec = device::deviceByName(name);
        std::vector<std::string> seen;
        for (frontend::LlamaConfig model : models) {
            // Where the f16 weights do not fit, the phone runs q4.
            if (model.weightBytes() > spec.vramBytes) {
                model = model.withQuant(frontend::Quant::kQ4);
            }
            if (std::find(seen.begin(), seen.end(), model.name) !=
                seen.end()) {
                continue;
            }
            seen.push_back(model.name);
            zoo.push_back({model, spec});
        }
    }
    return zoo;
}

std::vector<vm::Value>
prefillArgs(const std::vector<NDArray>& weights, NDArray ids)
{
    std::vector<vm::Value> args;
    args.emplace_back(std::move(ids));
    for (const NDArray& w : weights) args.emplace_back(w);
    return args;
}

/** Simulated latency (us) of a `decode_ragged` call, after one warm-up
 *  call that captures its execution graph. */
double
raggedLatencyUs(vm::VirtualMachine& machine, const std::vector<vm::Value>& args)
{
    machine.invoke("decode_ragged", args);
    machine.invoke("decode_ragged", args);
    return machine.lastRunStats().latencyUs;
}

/** What one round measures on the virtual clock (must repeat exactly). */
struct ZooSim
{
    std::vector<double> decodeMs;
    std::vector<double> prefillMs;
    double planBytes = 0.0;
    std::vector<double> ttftUs;
    std::vector<double> itlUs;
    /** Per entry: median TTFT, median and tail inter-token gap. */
    std::vector<double> entryTtftP50Us;
    std::vector<double> entryItlP50Us;
    std::vector<double> entryItlTailUs;
    int64_t tokens = 0;
    int64_t good = 0;
    double makespanUs = 0.0;
    ServeTotals totals;

    bool
    operator==(const ZooSim& o) const
    {
        return decodeMs == o.decodeMs && prefillMs == o.prefillMs &&
               planBytes == o.planBytes && ttftUs == o.ttftUs &&
               itlUs == o.itlUs && entryTtftP50Us == o.entryTtftP50Us &&
               entryItlP50Us == o.entryItlP50Us &&
               entryItlTailUs == o.entryItlTailUs && tokens == o.tokens &&
               good == o.good && makespanUs == o.makespanUs &&
               totals == o.totals;
    }
};

/** Host-side measurements of one round; per-entry times in zoo order. */
struct ZooHost
{
    std::vector<double> buildS;
    std::vector<double> compileS;
    double serveS = 0.0;
};

/** One request of a served stream. */
struct Request
{
    double us = 0.0;
    std::vector<int64_t> prompt;
    int64_t maxNew = 0;
};

/** Shapes, request streams and the oracle's inputs, from the seed. */
struct ZooInputs
{
    int64_t context = 512;
    int64_t prefill = 512;
    /** The request stream every zoo entry serves (token ids below the
     *  smallest vocabulary in the zoo). */
    std::vector<Request> stream;
    std::vector<int64_t> oraclePrompt;
    /** The tiny model's request set, Poisson arrivals. */
    std::vector<Request> oracleRequests;
};

/** Arrival rate of each desktop entry's request stream (light load). */
constexpr double kStreamRate = 5.0;

/** Goodput limits of the streams. */
constexpr double kTtftSloUs = 100e3;
constexpr double kTpotSloUs = 40e3;

ZooInputs
makeInputs(uint64_t seed)
{
    ZooInputs in;
    Rng rng(seed);
    in.context = rng.range(504, 520);
    in.prefill = rng.range(504, 520);
    int n = 32;
    std::vector<double> ug = stratifiedUniforms(rng, n, 16);
    std::vector<double> up = stratifiedUniforms(rng, n, 16);
    std::vector<double> uo = stratifiedUniforms(rng, n, 16);
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        t += -std::log(1.0 - ug[i]) / kStreamRate * 1e6;
        Request r;
        r.us = t;
        r.prompt = randomTokens(rng, 64 + std::llround(up[i] * 192), 32000);
        r.maxNew = 16 + std::llround(uo[i] * 48);
        in.stream.push_back(std::move(r));
    }

    const frontend::LlamaConfig tiny = frontend::LlamaConfig::tiny();
    in.oraclePrompt = randomTokens(rng, rng.range(12, 24), tiny.vocabSize);
    n = 16;
    ug = stratifiedUniforms(rng, n, n);
    up = stratifiedUniforms(rng, n, n);
    uo = stratifiedUniforms(rng, n, n);
    t = 0.0;
    for (int i = 0; i < n; ++i) {
        t += -std::log(1.0 - ug[i]) / 2000.0 * 1e6;
        Request r;
        r.us = t;
        r.prompt = randomTokens(rng, 4 + std::llround(up[i] * 28),
                                tiny.vocabSize);
        r.maxNew = 4 + std::llround(uo[i] * 8);
        in.oracleRequests.push_back(std::move(r));
    }
    return in;
}

/** A single-replica Router that has served a request set. */
struct Served
{
    std::unique_ptr<serve::Router> router;
    /** Finished requests in submission order. */
    std::vector<serve::FinishedRequest> finished;

    serve::Engine& engine() { return router->replica(0); }
};

/** Serves `requests` through a Router over `engine`; each request is one
 *  operation, failed unless it returns its prompt and full output. */
Served
serveThroughRouter(std::unique_ptr<serve::Engine> engine,
                   const std::vector<Request>& requests, double* serve_s,
                   const std::string& tag, Ledger& ledger)
{
    std::vector<std::unique_ptr<serve::Engine>> engines;
    engines.push_back(std::move(engine));
    Served served;
    served.router = std::make_unique<serve::Router>(std::move(engines));
    double start = hostSeconds();
    for (const Request& r : requests) {
        served.router->submit("default", r.prompt, r.maxNew, r.us);
    }
    served.router->run();
    std::vector<serve::RoutedRequest> done = served.router->collect();
    *serve_s += hostSeconds() - start;
    // Engine ids follow submission order on a single replica.
    std::sort(done.begin(), done.end(),
              [](const serve::RoutedRequest& a,
                 const serve::RoutedRequest& b) {
                  return a.finished.id < b.finished.id;
              });
    for (size_t i = 0; i < requests.size(); ++i) {
        bool ok = i < done.size() &&
                  done[i].finished.promptTokens == requests[i].prompt &&
                  (int64_t)done[i].finished.outputTokens.size() ==
                      requests[i].maxNew;
        ledger.operation(ok, tag + ": request " + std::to_string(i) +
                                 " came back wrong");
        served.finished.push_back(i < done.size() ? done[i].finished
                                                  : serve::FinishedRequest{});
    }
    ledger.check(served.engine().kv().usedPages() == 0,
                 tag + ": KV pool did not drain");
    return served;
}

/** How every zoo entry compiles: plan bounds from the seeded shapes. */
frontend::CompileOptions
zooCompileOptions(const ZooEntry& entry, const ZooInputs& in)
{
    frontend::CompileOptions options;
    options.device = entry.spec;
    options.bounds = {{"b", 16}, {"n", in.prefill}};
    return options;
}

/** Traced-round digests. */
struct ZooTrace
{
    DeviceDigest device;
    EngineDigest engine;
};

/** Folds one served stream into the round's serving metrics. */
void
addServing(Served& served, ZooSim& sim, ZooTrace* traced,
           double graph_capture_us)
{
    serve::Engine& engine = served.engine();
    double makespan = 0.0;
    std::vector<double> ttft;
    for (const serve::FinishedRequest& f : served.finished) {
        sim.totals.prompts += (int64_t)f.promptTokens.size();
        sim.totals.prefilled += f.stats.prefillTokens;
        sim.ttftUs.push_back(f.stats.ttftUs());
        ttft.push_back(f.stats.ttftUs());
        makespan = std::max(makespan, f.stats.finishUs);
        sim.tokens += (int64_t)f.outputTokens.size();
        if (f.stats.ttftUs() <= kTtftSloUs &&
            f.stats.meanInterTokenUs() <= kTpotSloUs) {
            ++sim.good;
        }
    }
    sim.makespanUs += makespan;
    sim.totals.addEngine(engine);
    const auto& itl = engine.metrics().histogram("serve.itl_us").values();
    sim.itlUs.insert(sim.itlUs.end(), itl.begin(), itl.end());
    sim.entryTtftP50Us.push_back(median(ttft));
    sim.entryItlP50Us.push_back(median(itl));
    sim.entryItlTailUs.push_back(percentile(itl, tailQuantile(itl.size())));
    if (traced) {
        traced->device.add(engine.machine().dev().trace(), graph_capture_us);
        traced->engine.add(engine.machine().dev().trace());
    }
}

/**
 * Compiles and runs every zoo entry once: decode at batch 1 and 16 and
 * prefill on `decode_ragged`, then the request stream through a Router.
 * With `profiles`, also rebuilds each compile pass by pass.
 */
void
runZoo(const std::vector<ZooEntry>& zoo, const ZooInputs& in, ZooSim& sim,
       ZooHost& host, ZooTrace* traced, std::vector<PassProfile>* profiles,
       Result& result)
{
    Ledger& ledger = result.ledger;
    for (const ZooEntry& entry : zoo) {
        const frontend::LlamaConfig& c = entry.model;
        std::string tag = c.name + "@" + entry.spec.name;
        frontend::CompileOptions options = zooCompileOptions(entry, in);
        double t0 = hostSeconds();
        auto module = frontend::buildLlama(c);
        double t1 = hostSeconds();
        vm::ExecutablePtr exec = frontend::compile(module, options);
        host.buildS.push_back(t1 - t0);
        host.compileS.push_back(hostSeconds() - t1);
        ledger.operation(exec != nullptr, tag + ": compile");
        sim.planBytes +=
            (double)relax::passes::memoryPlanReport(exec->module)
                .bytesAllocated;
        if (profiles) {
            PassProfile profile =
                compileByPass(frontend::buildLlama(c), options);
            ledger.check(sameExecutable(*profile.exec, *exec),
                         tag + ": pass-by-pass executable differs from "
                               "compile()'s");
            profiles->push_back(std::move(profile));
        }

        auto dev = std::make_shared<device::SimDevice>(entry.spec);
        if (traced) dev->trace().enable();
        vm::VirtualMachine machine(exec, dev, /*data_mode=*/false);
        std::vector<NDArray> weights = frontend::makeLlamaWeights(c, false);
        double bw = entry.spec.memBandwidthGBs * 1e3; // bytes per us
        for (int64_t batch : {1, 16}) {
            double us = raggedLatencyUs(
                machine, raggedArgs(c, weights, batch, 1, in.context));
            sim.decodeMs.push_back(us / 1e3);
            ledger.operation(us > 0, tag + ": decode");
            ledger.check(us >= matmulWeightBytes(c) / bw,
                         tag + ": decode below the weight-streaming floor");
        }
        double us =
            raggedLatencyUs(machine, raggedArgs(c, weights, 1, in.prefill, 0));
        sim.prefillMs.push_back(us / 1e3);
        ledger.operation(us > 0, tag + ": prefill");
        double floor_us = 2.0 * matmulParams(c) * (double)in.prefill /
                          (entry.spec.fp16Tflops * 1e6);
        ledger.check(us >= floor_us,
                     tag + ": prefill below the compute floor");
        sim.totals.peakDeviceBytes =
            std::max(sim.totals.peakDeviceBytes, (double)dev->peakBytes());
        if (traced) {
            traced->device.add(dev->trace(), entry.spec.graphCaptureUs);
        }

        // The request stream through the scheduler, on a fresh device —
        // on the desktop GPUs only: the phone's prefill alone would keep
        // a backlog at any rate worth a stream.
        if (!entry.spec.hasGemmLibrary) continue;
        serve::EngineOptions eo;
        eo.scheduler.maxBatchSize = 16;
        eo.scheduler.maxPrefillTokensPerStep = in.prefill - 16;
        auto serve_dev = std::make_shared<device::SimDevice>(entry.spec);
        if (traced) serve_dev->trace().enable();
        auto engine = std::make_unique<serve::Engine>(
            exec, serve_dev, /*data_mode=*/false, c, weights, eo);
        Served served = serveThroughRouter(std::move(engine), in.stream,
                                           &host.serveS, tag, ledger);
        addServing(served, sim, traced, entry.spec.graphCaptureUs);
    }
}

/**
 * The oracle on one target: data-mode prefill logits against the
 * reference, then the seeded request set served through a Router over
 * one data-mode engine, tokens against the reference's greedy run.
 */
void
runOracle(const device::DeviceSpec& spec, const ZooInputs& in,
          const std::vector<NDArray>& weights, const ReferenceModel& ref,
          const std::vector<std::vector<ReferenceModel::Step>>& expected,
          Result& result)
{
    Ledger& ledger = result.ledger;
    const frontend::LlamaConfig tiny = frontend::LlamaConfig::tiny();
    serve::EngineOptions eo;
    eo.scheduler.maxBatchSize = 8;
    eo.scheduler.maxPrefillTokensPerStep = 64;
    frontend::CompileOptions options;
    options.device = spec;
    options.bounds = {{"b", 8}, {"n", 64}};
    options.graphBucketTokens = eo.kvBlockTokens;
    vm::ExecutablePtr exec =
        frontend::compile(frontend::buildLlama(tiny), options);

    // Prefill logits against the reference.
    auto dev = std::make_shared<device::SimDevice>(spec);
    vm::VirtualMachine machine(exec, dev, /*data_mode=*/true);
    const std::vector<int64_t>& prompt = in.oraclePrompt;
    NDArray ids = NDArray::fromVector(
        {1, (int64_t)prompt.size()}, relax::DataType::i64(),
        std::vector<double>(prompt.begin(), prompt.end()));
    auto out = std::get<vm::TupleValuePtr>(
        machine.invoke("prefill", prefillArgs(weights, ids)));
    const NDArray& logits = std::get<NDArray>(out->fields[0]);
    auto want = ref.forward(prompt);
    double worst = 0.0;
    for (size_t t = 0; t < prompt.size(); ++t) {
        for (int64_t v = 0; v < tiny.vocabSize; ++v) {
            double got = logits.at((int64_t)t * tiny.vocabSize + v);
            worst = std::max(worst, std::fabs(got - want[t][v]));
        }
    }
    ledger.operation(worst <= kLogitTolerance,
                     spec.name + ": prefill logits differ from the "
                                 "reference by " + std::to_string(worst));

    // Greedy serving: token-exact wherever the reference's choice is
    // decisive; a near-tie ends the comparison (the streams may diverge
    // from there on).
    double serve_s = 0.0;
    Served served = serveThroughRouter(
        std::make_unique<serve::Engine>(
            exec, std::make_shared<device::SimDevice>(spec),
            /*data_mode=*/true, tiny, weights, eo),
        in.oracleRequests, &serve_s, spec.name + " (tiny)", ledger);
    for (size_t i = 0; i < served.finished.size(); ++i) {
        const std::vector<int64_t>& got = served.finished[i].outputTokens;
        bool same = true;
        for (size_t j = 0; same && j < got.size(); ++j) {
            if (expected[i][j].margin <= kLogitTolerance) break;
            same = got[j] == expected[i][j].token;
        }
        ledger.operation(same, spec.name + ": served request " +
                                   std::to_string(i) +
                                   " differs from the reference");
    }
}

} // namespace

void
runCompileZoo(const Options& options, Result& result)
{
    Metrics& m = result.metrics;
    ZooInputs in = makeInputs(options.seed);
    std::vector<ZooEntry> zoo = zooEntries();
    // Set-up: every zoo entry built and compiled once, cold — so a slower
    // frontend or pass pipeline shows in setup_s.
    for (const ZooEntry& entry : zoo) {
        frontend::compile(frontend::buildLlama(entry.model),
                          zooCompileOptions(entry, in));
    }
    double setup_s = hostSeconds();

    const frontend::LlamaConfig tiny = frontend::LlamaConfig::tiny();
    std::vector<NDArray> tiny_weights =
        frontend::makeLlamaWeights(tiny, /*with_data=*/true);
    ReferenceModel ref(tiny, tiny_weights);
    std::vector<std::vector<ReferenceModel::Step>> expected;
    for (const Request& r : in.oracleRequests) {
        expected.push_back(ref.greedy(r.prompt, r.maxNew));
    }

    std::vector<ZooHost> hosts;
    double peak_rss = 0.0; // set-up and the first round
    ZooSim first;
    ZooTrace digest;
    std::vector<PassProfile> profiles;
    int rounds = 0;
    double begin = wallSeconds();
    // Untraced runs repeat whole rounds for --seconds (at least two);
    // a traced run makes one untraced round, then one traced round.
    while (rounds < 2 ||
           (!options.trace && wallSeconds() - begin < options.seconds)) {
        bool traced = options.trace && rounds == 1;
        ZooSim sim;
        ZooHost host;
        runZoo(zoo, in, sim, host, traced ? &digest : nullptr,
               traced ? &profiles : nullptr, result);
        for (const char* target : {"rtx4090", "s24"}) {
            runOracle(device::deviceByName(target), in, tiny_weights, ref,
                      expected, result);
        }
        std::sort(sim.ttftUs.begin(), sim.ttftUs.end());
        std::sort(sim.itlUs.begin(), sim.itlUs.end());
        if (rounds == 0) {
            first = sim;
            peak_rss = peakRssMb();
        } else {
            result.ledger.check(sim == first,
                                "compile_zoo: simulated metrics differ "
                                "between rounds of one seed");
        }
        hosts.push_back(host);
        ++rounds;
    }

    // Host time on a shared machine only ever runs slow: each entry's
    // fastest time over the rounds, summed over the zoo.
    auto fastest_total = [&](std::vector<double> ZooHost::*field) {
        double total = 0.0;
        for (size_t e = 0; e < zoo.size(); ++e) {
            double best = (hosts[0].*field)[e];
            for (const ZooHost& h : hosts) best = std::min(best, (h.*field)[e]);
            total += best;
        }
        return total;
    };
    double tail_q = tailQuantile(first.ttftUs.size());
    std::cerr << "compile_zoo: " << rounds << " rounds, " << zoo.size()
              << " zoo entries, ttft tail = p"
              << std::llround(tail_q * 100) << " of "
              << first.ttftUs.size() << ", itl tail = p"
              << std::llround(tailQuantile(first.itlUs.size()) * 100)
              << " of " << first.itlUs.size() << ", within limits "
              << (double)first.good / (double)first.ttftUs.size() << "\n";

    if (!options.trace) {
        m.set("setup_s", setup_s, "s");
        m.set("peak_rss_mb", peak_rss, "MiB");
        // Latencies differ by orders of magnitude across targets, so the
        // medians and the ITL tail are per-entry figures combined by
        // geometric mean; the TTFT tail pools every request.
        m.set("ttft_p50_ms", geomean(first.entryTtftP50Us) / 1e3, "ms");
        m.set("ttft_tail_ms", percentile(first.ttftUs, tail_q) / 1e3, "ms");
        m.set("itl_p50_ms", geomean(first.entryItlP50Us) / 1e3, "ms");
        m.set("itl_p99_ms", geomean(first.entryItlTailUs) / 1e3, "ms");
        m.set("output_tok_per_s",
              (double)first.tokens / first.makespanUs * 1e6, "tok/s");
        m.set("goodput_rps", (double)first.good / first.makespanUs * 1e6,
              "req/s");
        m.set("decode_ms", geomean(first.decodeMs), "ms");
        m.set("prefill_ms", geomean(first.prefillMs), "ms");
        m.set("plan_mb", first.planBytes / (1024.0 * 1024.0), "MiB");
        return;
    }

    m.set("frontend.build_ms", fastest_total(&ZooHost::buildS) * 1e3, "ms");
    m.set("frontend.compile_ms", fastest_total(&ZooHost::compileS) * 1e3,
          "ms");
    setPassMetrics(profiles, m);
    int64_t inplace = 0, reuse = 0;
    for (const PassProfile& profile : profiles) {
        auto plan = relax::passes::memoryPlanReport(profile.exec->module);
        inplace += plan.inplaceWrites;
        reuse += plan.reuseHits;
    }
    m.set("passes.inplace_rewrites", (double)inplace, "count");
    m.set("passes.plan_reuse_hits", (double)reuse, "count");

    // The VM probe runs the first zoo entry (Llama3-8B on rtx4090).
    InvokeProbe probe =
        probeInvoke(profiles.at(0).exec, zoo[0].model, zoo[0].spec, 1,
                    "nvlink", /*batch=*/8, in.context, /*calls=*/20);
    m.set("vm.instrs", (double)probe.instrs, "count");
    m.set("vm.kernels_per_call", (double)probe.kernels, "count");
    m.set("vm.library_calls_per_call", (double)probe.libraryCalls, "count");
    m.set("vm.invoke_host_us", probe.hostUs, "us");
    setServeMetrics(first.totals, digest.device, digest.engine,
                    hosts[0].serveS, m);
    // One replica per zoo entry: placement has no choice to make.
    m.set("router.imbalance", 1.0, "ratio");
    m.set("router.prefix_local_ratio", 0.0, "ratio");
}

} // namespace stackbench
