/**
 * @file
 * The serving workloads — chat, shared_prefix and long_context — driven
 * through serve::Router over serve::Engine replicas in timing mode.
 *
 * Every workload fixes its offered load: an open-loop arrival schedule
 * at a fixed rate, drawn from the seed, never derived from measured
 * capacity. A run is set-up (compile every replica, build the engines)
 * followed by whole rounds; each round recompiles the model (the
 * per-layer frontend.compile_ms), serves the full trace on fresh engines
 * (every simulated metric) and runs a fixed decode/prefill probe
 * (decode_ms, prefill_ms). Simulated metrics come from the virtual clock and must
 * repeat exactly from round to round.
 */
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.h"
#include "passes/alias_analysis.h"
#include "serve/router.h"

namespace stackbench {

namespace serve = relax::serve;

namespace {

struct Arrival
{
    double us = 0.0;
    std::vector<int64_t> prompt;
    int64_t maxNew = 0;
    int system = -1; //!< shared system prompt index, -1 when none
};

/** One serving workload: cluster shape, engine settings, limits and
 *  the seeded arrival trace. */
struct Workload
{
    std::string name;
    frontend::LlamaConfig model = frontend::LlamaConfig::llama3_8b();
    device::DeviceSpec spec = device::rtx4090();
    int replicas = 1;
    int tp = 1;
    std::string interconnect = "nvlink";
    serve::EngineOptions engine;
    frontend::CompileOptions compile;
    /** Goodput limits: time to first token, mean time per output token. */
    double ttftSloMs = 0.0;
    double tpotSloMs = 0.0;
    double ratePerSec = 0.0;
    std::vector<Arrival> arrivals;

    /** The offered window: requests / rate (seconds). */
    double
    windowS() const
    {
        return (double)arrivals.size() / ratePerSec;
    }
};

/** Traces draw every property in blocks of this many consecutive
 *  arrivals, each covering all quantile bands (see stratifiedUniforms). */
constexpr int kBlock = 16;

/** Timed compiles of the served model per round. */
constexpr int kCompilesPerRound = 4;

/** Poisson arrival stamps at `rate` per second (stratified gaps). */
std::vector<double>
arrivalTimesUs(Rng& rng, int n, double rate)
{
    std::vector<double> times;
    double t = 0.0;
    for (double u : stratifiedUniforms(rng, n, kBlock)) {
        t += -std::log(1.0 - u) / rate * 1e6;
        times.push_back(t);
    }
    return times;
}

/**
 * Engine and compile settings for `max_batch` rows, sized from the trace
 * as a user sizes them from their workload: the per-step prefill cap
 * admits the longest prompt, and the packed-token bound `n` covers one
 * step's fresh tokens — the cap plus one decode row per other slot, or
 * the longest prompt + output re-prefilled after a preemption.
 */
void
configureCluster(Workload& w, int64_t max_batch)
{
    int64_t prompt = 0, total = 0;
    for (const Arrival& a : w.arrivals) {
        prompt = std::max(prompt, (int64_t)a.prompt.size());
        total = std::max(total, (int64_t)a.prompt.size() + a.maxNew);
    }
    w.engine.scheduler.maxBatchSize = max_batch;
    w.engine.scheduler.maxPrefillTokensPerStep = prompt;
    w.engine.kvBlockTokens = 16;
    w.engine.tensorParallel = w.tp;
    w.engine.interconnect = w.interconnect;
    w.compile.device = w.spec;
    w.compile.bounds = {{"b", max_batch},
                        {"n", std::max(prompt + max_batch, total)}};
    // As Engine::build does: capture buckets aligned with KV pages.
    w.compile.graphBucketTokens = w.engine.kvBlockTokens;
    w.compile.tensorParallel = w.tp;
}

/**
 * chat: 2 replicas, heavy-tailed unshared prompts (32..2048 tokens) and
 * outputs (16..512), Poisson arrivals at a fixed rate (~75% of the
 * cluster's capacity).
 */
Workload
chatWorkload(uint64_t seed)
{
    Workload w;
    w.name = "chat";
    w.replicas = 2;
    w.ttftSloMs = 100.0;
    w.tpotSloMs = 30.0;
    w.ratePerSec = 27.0;
    const int n = 960;
    Rng rng(seed);
    std::vector<double> times = arrivalTimesUs(rng, n, w.ratePerSec);
    std::vector<double> up = stratifiedUniforms(rng, n, kBlock);
    std::vector<double> uo = stratifiedUniforms(rng, n, kBlock);
    for (int i = 0; i < n; ++i) {
        Arrival a;
        a.us = times[i];
        int64_t len = std::llround(boundedPareto(up[i], 32, 2048, 0.9));
        a.prompt = randomTokens(rng, len, w.model.vocabSize);
        a.maxNew = std::llround(boundedPareto(uo[i], 16, 512, 1.0));
        w.arrivals.push_back(std::move(a));
    }
    configureCluster(w, /*max_batch=*/32);
    return w;
}

/**
 * shared_prefix: the chat cluster; 80% of requests open with one of four
 * ~1k-token system prompts (Zipf popularity), then a short unique tail,
 * the rest are unique 256..1280-token prompts; short outputs.
 */
Workload
sharedPrefixWorkload(uint64_t seed)
{
    Workload w;
    w.name = "shared_prefix";
    w.replicas = 2;
    w.ttftSloMs = 200.0;
    w.tpotSloMs = 50.0;
    w.ratePerSec = 12.0;
    const int n = 480;
    Rng rng(seed);
    std::vector<std::vector<int64_t>> systems;
    for (int s = 0; s < 4; ++s) {
        systems.push_back(randomTokens(rng, rng.range(896, 1152),
                                       w.model.vocabSize));
    }
    // Category shares: system prompt s with weight 1/(s+1), scaled to
    // 80%, and 20% fully unique prompts.
    std::vector<double> cdf;
    double zipf = 0.0;
    for (int s = 0; s < 4; ++s) zipf += 1.0 / (s + 1);
    double acc = 0.0;
    for (int s = 0; s < 4; ++s) {
        acc += 0.8 / (s + 1) / zipf;
        cdf.push_back(acc);
    }
    std::vector<double> times = arrivalTimesUs(rng, n, w.ratePerSec);
    std::vector<double> uc = stratifiedUniforms(rng, n, kBlock);
    std::vector<double> ut = stratifiedUniforms(rng, n, kBlock);
    std::vector<double> uo = stratifiedUniforms(rng, n, kBlock);
    for (int i = 0; i < n; ++i) {
        Arrival a;
        a.us = times[i];
        int s = 0;
        while (s < 4 && uc[i] >= cdf[s]) ++s;
        if (s < 4) {
            a.system = s;
            a.prompt = systems[s];
            std::vector<int64_t> tail = randomTokens(
                rng, 16 + std::llround(ut[i] * 112), w.model.vocabSize);
            a.prompt.insert(a.prompt.end(), tail.begin(), tail.end());
        } else {
            a.prompt = randomTokens(rng, 256 + std::llround(ut[i] * 1024),
                                    w.model.vocabSize);
        }
        a.maxNew = 16 + std::llround(uo[i] * 112);
        w.arrivals.push_back(std::move(a));
    }
    configureCluster(w, /*max_batch=*/32);
    return w;
}

/**
 * long_context: one engine sharded tensor-parallel over two devices on
 * PCIe 4.0; long prompts (1024..2048) and outputs (96..320) arrive in
 * bursts of eight, as a batch of long documents submitted together.
 * The KV pool holds a burst's prompts but not what they grow into, so
 * every burst preempts and recomputes. Bursts start 7..9 s apart, so
 * each drains before the next and the backlog stays bounded.
 */
Workload
longContextWorkload(uint64_t seed)
{
    Workload w;
    w.name = "long_context";
    w.tp = 2;
    w.interconnect = "pcie_gen4";
    // A burst's prompts (8 x ~1536 positions) fit; their growth does not.
    w.engine.kvBudgetBytes = 12800 * w.model.kvBytesPerToken();
    w.ttftSloMs = 2000.0;
    w.tpotSloMs = 25.0;
    const int burst = 8, bursts = 6, n = burst * bursts;
    const double pause_s = 7.0, jitter_s = 2.0;
    w.ratePerSec = burst / (pause_s + jitter_s / 2);
    Rng rng(seed);
    // Burst b starts pause + U * jitter after burst b - 1; its requests
    // follow one another at exponential gaps of 50 ms mean. Lengths are
    // stratified per burst, so every burst holds the same mix.
    std::vector<double> ub = stratifiedUniforms(rng, bursts, bursts);
    std::vector<double> ug = stratifiedUniforms(rng, n, burst);
    std::vector<double> times;
    double start = 0.0;
    for (int b = 0; b < bursts; ++b) {
        start += (pause_s + ub[b] * jitter_s) * 1e6;
        double t = start;
        for (int j = 0; j < burst; ++j) {
            t += -std::log(1.0 - ug[b * burst + j]) * 50e3;
            times.push_back(t);
        }
    }
    std::vector<double> up = stratifiedUniforms(rng, n, burst);
    std::vector<double> uo = stratifiedUniforms(rng, n, burst);
    for (int i = 0; i < n; ++i) {
        Arrival a;
        a.us = times[i];
        a.prompt = randomTokens(rng, 1024 + std::llround(up[i] * 1024),
                                w.model.vocabSize);
        a.maxNew = 96 + std::llround(uo[i] * 224);
        w.arrivals.push_back(std::move(a));
    }
    configureCluster(w, /*max_batch=*/16);
    return w;
}

Workload
makeWorkload(const std::string& name, uint64_t seed)
{
    if (name == "chat") return chatWorkload(seed);
    if (name == "shared_prefix") return sharedPrefixWorkload(seed);
    return longContextWorkload(seed);
}

/** Everything a round measures on the virtual clock. Two rounds of one
 *  seed must produce identical values. */
struct SimResult
{
    std::vector<double> ttftUs;
    std::vector<double> tpotUs;
    std::vector<double> itlUs;
    double goodput = 0.0;
    double tokPerSec = 0.0;
    double decodeMs = 0.0;
    double prefillMs = 0.0;
    ServeTotals totals;
    double imbalance = 0.0;
    double prefixLocal = 0.0;

    bool
    operator==(const SimResult& o) const
    {
        return ttftUs == o.ttftUs && tpotUs == o.tpotUs && itlUs == o.itlUs &&
               goodput == o.goodput && tokPerSec == o.tokPerSec &&
               decodeMs == o.decodeMs && prefillMs == o.prefillMs &&
               totals == o.totals && imbalance == o.imbalance &&
               prefixLocal == o.prefixLocal;
    }
};

/** The set-up artifacts every round reuses: one executable per replica
 *  and the (metadata-only) full weight set. */
struct Cluster
{
    std::vector<vm::ExecutablePtr> execs;
    std::vector<NDArray> weights;
};

std::unique_ptr<serve::Engine>
makeEngine(const Workload& w, const vm::ExecutablePtr& exec,
           const std::vector<NDArray>& weights)
{
    std::shared_ptr<device::DeviceGroup> group;
    std::shared_ptr<device::SimDevice> dev;
    if (w.tp > 1) {
        group = std::make_shared<device::DeviceGroup>(
            w.spec, w.tp, device::interconnectByName(w.interconnect));
        dev = group->devicePtr(0);
    } else {
        dev = std::make_shared<device::SimDevice>(w.spec);
    }
    return std::make_unique<serve::Engine>(exec, dev, /*data_mode=*/false,
                                           w.model, weights, w.engine,
                                           group);
}

std::vector<std::unique_ptr<serve::Engine>>
makeEngines(const Workload& w, const Cluster& cluster)
{
    std::vector<std::unique_ptr<serve::Engine>> engines;
    for (const auto& exec : cluster.execs) {
        engines.push_back(makeEngine(w, exec, cluster.weights));
    }
    return engines;
}

/**
 * decode_ms / prefill_ms on a serving workload: fresh replicas serve
 * four lone requests of seeded ~512-token prompts, then a full batch;
 * prefill is the lone requests' mean TTFT, decode the geomean of the
 * median inter-token gap alone and in the batch.
 */
void
probeLatency(const Workload& w, const Cluster& cluster, uint64_t seed,
             Result& result, SimResult& sim)
{
    Rng rng(seed ^ 0x5EEDull);
    auto serve = [&](int64_t requests) {
        auto engine = makeEngine(w, cluster.execs[0], cluster.weights);
        for (int64_t i = 0; i < requests; ++i) {
            engine->addRequest(
                randomTokens(rng, rng.range(480, 544), w.model.vocabSize), 33,
                -1, 0.0);
        }
        engine->run();
        auto done = engine->collect();
        bool ok = (int64_t)done.size() == requests;
        for (const auto& f : done) ok = ok && f.outputTokens.size() == 33;
        result.ledger.operation(ok, w.name + ": latency probe");
        return std::make_pair(
            done.at(0).stats.ttftUs() / 1e3,
            median(engine->metrics().histogram("serve.itl_us").values()) /
                1e3);
    };
    std::vector<double> prefill, alone;
    for (int i = 0; i < 4; ++i) {
        auto [ttft, itl] = serve(1);
        prefill.push_back(ttft);
        alone.push_back(itl);
    }
    double batched =
        serve(std::min<int64_t>(16, w.engine.scheduler.maxBatchSize)).second;
    sim.prefillMs = (prefill[0] + prefill[1] + prefill[2] + prefill[3]) / 4;
    sim.decodeMs = geomean({median(alone), batched});
}

/** What the traced rounds add: digests of the replicas' traces. */
struct TraceDigest
{
    DeviceDigest device;
    EngineDigest engine;
};

/**
 * Which device a traced round records: one (replica, shard) per round,
 * so a round holds one device's events at a time. Shard 0 also carries
 * the replica's engine lane.
 */
struct TraceTarget
{
    int replica = -1;
    int shard = 0;
};

/**
 * Serves the workload's trace once on `engines` through a Router and
 * checks the outputs and the properties every serving run must hold.
 * With `traced`, tracing is on for the round and the replicas' traces
 * are digested before the router goes.
 */
SimResult
serveRound(const Workload& w,
           std::vector<std::unique_ptr<serve::Engine>> engines,
           TraceTarget target, TraceDigest* traced, double* serve_s,
           Result& result)
{
    Ledger& ledger = result.ledger;
    std::vector<serve::Engine*> replicas;
    for (auto& e : engines) replicas.push_back(e.get());
    // Shards 1..N-1 of a group share shard 0's recorder; give each its
    // own (declared before the router, so they outlive the devices) and
    // enable only the traced device's.
    std::vector<std::unique_ptr<relax::TraceRecorder>> shard_traces;
    relax::TraceRecorder* recorder = nullptr;
    if (traced) {
        serve::Engine& e = *replicas.at((size_t)target.replica);
        recorder = &e.machine().dev().trace();
        for (int s = 1; s < e.tensorParallel(); ++s) {
            shard_traces.push_back(std::make_unique<relax::TraceRecorder>());
            e.deviceGroup()->device(s).shareTrace(*shard_traces.back(), s);
            if (s == target.shard) recorder = shard_traces.back().get();
        }
        recorder->enable();
    }
    serve::Router router(std::move(engines));
    double start = hostSeconds();
    for (const Arrival& a : w.arrivals) {
        router.submit("default", a.prompt, a.maxNew, a.us);
    }
    const serve::RouterStats& stats = router.run();
    std::vector<serve::RoutedRequest> done = router.collect();
    *serve_s = hostSeconds() - start;

    ledger.check(stats.shed == 0 && stats.tenantRejected == 0,
                 w.name + ": router refused requests");
    // Arrival stamps are distinct, so arrival order recovers the
    // generator's order.
    std::sort(done.begin(), done.end(),
              [](const serve::RoutedRequest& a,
                 const serve::RoutedRequest& b) {
                  return a.finished.stats.arrivalUs <
                         b.finished.stats.arrivalUs;
              });
    SimResult sim;
    int64_t generated = 0, budget = 0, good = 0, with_system = 0,
            local = 0;
    double makespan = 0.0;
    std::vector<int64_t> replica_tokens((size_t)w.replicas, 0);
    std::vector<std::vector<int>> seen((size_t)w.replicas);
    for (size_t i = 0; i < w.arrivals.size(); ++i) {
        const Arrival& a = w.arrivals[i];
        budget += a.maxNew;
        sim.totals.prompts += (int64_t)a.prompt.size();
        // Each arrival is one operation: it fails when it was refused or
        // came back without its prompt and full output.
        if (i >= done.size()) {
            ledger.operation(false, w.name + ": request never finished");
            continue;
        }
        const serve::RoutedRequest& r = done[i];
        const serve::RequestStats& st = r.finished.stats;
        int64_t out = (int64_t)r.finished.outputTokens.size();
        ledger.operation(r.finished.promptTokens == a.prompt &&
                             out == a.maxNew && st.arrivalUs == a.us,
                         w.name + ": request " + std::to_string(i) +
                             " came back wrong");
        generated += out;
        replica_tokens[(size_t)r.replica] += out;
        sim.totals.prefilled += st.prefillTokens;
        sim.ttftUs.push_back(st.ttftUs());
        sim.tpotUs.push_back(st.meanInterTokenUs());
        makespan = std::max(makespan, st.finishUs);
        if (st.ttftUs() <= w.ttftSloMs * 1e3 &&
            st.meanInterTokenUs() <= w.tpotSloMs * 1e3) {
            ++good;
        }
        if (st.preemptions == 0) {
            // Unpreempted, every prompt token is prefilled once or
            // taken from the prefix cache — never more.
            ledger.check(st.prefillTokens <= (int64_t)a.prompt.size(),
                         w.name + ": request prefilled beyond its prompt");
            if (w.name == "chat") {
                ledger.check(st.prefillTokens == (int64_t)a.prompt.size(),
                             "chat: an unshared prompt was reused");
            }
        }
        if (a.system >= 0) {
            // Placed where its system prompt was already served?
            std::vector<int>& on_replica = seen[(size_t)r.replica];
            ++with_system;
            if (std::find(on_replica.begin(), on_replica.end(), a.system) !=
                on_replica.end()) {
                ++local;
            } else {
                on_replica.push_back(a.system);
            }
        }
    }
    ledger.check(generated == budget,
                 w.name + ": generated tokens != requested max_new");

    for (serve::Engine* e : replicas) {
        const serve::EngineStats& es = e->stats();
        sim.totals.addEngine(*e);
        const auto& itl = e->metrics().histogram("serve.itl_us").values();
        sim.itlUs.insert(sim.itlUs.end(), itl.begin(), itl.end());
        ledger.check(e->kv().usedPages() == 0,
                     w.name + ": KV pool did not drain");
        ledger.check(es.relayoutBytes == 0,
                     w.name + ": host-side KV relayout");
        // Independent floor: every step streams each shard's matmul
        // weights at least once at the device's bandwidth.
        double floor_us = (double)es.steps * matmulWeightBytes(w.model) /
                          w.tp / (w.spec.memBandwidthGBs * 1e3);
        ledger.check(es.busyUs >= floor_us,
                     w.name + ": busy time below the roofline floor");
        if (e->deviceGroup()) {
            ledger.check(e->deviceGroup()->collectiveCount() ==
                             es.steps * (2 * w.model.numLayers + 1),
                         w.name + ": collectives != steps * (2L + 1)");
        }
    }
    if (w.name == "long_context") {
        ledger.check(sim.totals.preemptions > 0,
                     "long_context: nothing was preempted, so eviction and "
                     "recompute went unmeasured");
    }
    if (traced) {
        traced->device.add(*recorder, w.spec.graphCaptureUs);
        if (target.shard == 0) traced->engine.add(*recorder);
    }
    sim.imbalance = (double)*std::max_element(replica_tokens.begin(),
                                              replica_tokens.end()) /
                    ((double)generated / (double)w.replicas);
    sim.prefixLocal =
        with_system > 0 ? (double)local / (double)with_system : 0.0;
    sim.tokPerSec = makespan > 0 ? (double)generated / makespan * 1e6 : 0.0;
    sim.goodput = (double)good / w.windowS();
    std::sort(sim.ttftUs.begin(), sim.ttftUs.end());
    std::sort(sim.tpotUs.begin(), sim.tpotUs.end());
    std::sort(sim.itlUs.begin(), sim.itlUs.end());
    return sim;
}

} // namespace

bool
isServingWorkload(const std::string& name)
{
    return name == "chat" || name == "shared_prefix" ||
           name == "long_context";
}

void
runServing(const Options& options, Result& result)
{
    Workload w = makeWorkload(options.workload, options.seed);
    Metrics& m = result.metrics;

    // Set-up: one compiled executable per replica, as Engine::build
    // would compile it, and the engines of the first round.
    Cluster cluster;
    for (int r = 0; r < w.replicas; ++r) {
        cluster.execs.push_back(
            frontend::compile(frontend::buildLlama(w.model), w.compile));
    }
    cluster.weights = frontend::makeLlamaWeights(w.model, false);
    auto engines = makeEngines(w, cluster);
    double setup_s = hostSeconds();

    std::vector<double> serve_s, compile_s, build_ms;
    double peak_rss = 0.0; // set-up and the first round
    SimResult first;
    TraceDigest digest;
    double traced_s = 0.0;
    int rounds = 0;
    double begin = wallSeconds();
    // Untraced runs repeat whole rounds for --seconds (at least two); a
    // traced run makes one untraced round, then one traced round per
    // device.
    const int traced_rounds = w.replicas * w.tp;
    while (options.trace ? rounds <= traced_rounds
                         : (rounds < 2 ||
                            wallSeconds() - begin < options.seconds)) {
        // frontend.compile_ms is the fastest of several compiles: host
        // time on a shared machine only ever runs slow, never fast.
        for (int i = 0; i < kCompilesPerRound; ++i) {
            double t0 = hostSeconds();
            auto module = frontend::buildLlama(w.model);
            double t1 = hostSeconds();
            auto exec = frontend::compile(module, w.compile);
            build_ms.push_back((t1 - t0) * 1e3);
            compile_s.push_back(hostSeconds() - t1);
            result.ledger.operation(
                sameExecutable(*exec, *cluster.execs[0]),
                w.name + ": recompile differs");
        }
        if (rounds > 0) engines = makeEngines(w, cluster);

        bool traced = options.trace && rounds > 0;
        TraceTarget target;
        if (traced) {
            target.replica = (rounds - 1) / w.tp;
            target.shard = (rounds - 1) % w.tp;
        }
        double round_s = 0.0;
        SimResult sim = serveRound(w, std::move(engines), target,
                                   traced ? &digest : nullptr, &round_s,
                                   result);
        probeLatency(w, cluster, options.seed, result, sim);
        if (rounds == 0) {
            first = sim;
            peak_rss = peakRssMb();
        } else {
            result.ledger.check(sim == first,
                                w.name + ": simulated metrics differ "
                                         "between rounds of one seed");
        }
        if (traced) {
            traced_s += round_s;
        } else {
            serve_s.push_back(round_s);
        }
        ++rounds;
    }

    double tail_q = tailQuantile(first.ttftUs.size());
    std::cerr << w.name << ": " << rounds << " rounds, "
              << w.arrivals.size() << " requests/round, ttft tail = p"
              << std::llround(tail_q * 100) << " of "
              << first.ttftUs.size() << ", itl tail = p"
              << std::llround(tailQuantile(first.itlUs.size()) * 100)
              << " of " << first.itlUs.size() << ", steps "
              << first.totals.steps << ", preemptions "
              << first.totals.preemptions << ", within limits "
              << first.goodput * w.windowS() / (double)w.arrivals.size()
              << ", ttft p50/p90 " << percentile(first.ttftUs, 0.5) / 1e3
              << "/" << percentile(first.ttftUs, 0.9) / 1e3
              << " ms, tpot p50/p90 " << percentile(first.tpotUs, 0.5) / 1e3
              << "/" << percentile(first.tpotUs, 0.9) / 1e3 << " ms\n";

    if (!options.trace) {
        m.set("setup_s", setup_s, "s");
        m.set("peak_rss_mb", peak_rss, "MiB");
        m.set("ttft_p50_ms", percentile(first.ttftUs, 0.5) / 1e3, "ms");
        m.set("ttft_tail_ms", percentile(first.ttftUs, tail_q) / 1e3, "ms");
        m.set("itl_p50_ms", percentile(first.itlUs, 0.5) / 1e3, "ms");
        m.set("itl_p99_ms",
              percentile(first.itlUs, tailQuantile(first.itlUs.size())) /
                  1e3,
              "ms");
        m.set("output_tok_per_s", first.tokPerSec, "tok/s");
        m.set("goodput_rps", first.goodput, "req/s");
        m.set("decode_ms", first.decodeMs, "ms");
        m.set("prefill_ms", first.prefillMs, "ms");
        m.set("plan_mb",
              (double)relax::passes::memoryPlanReport(
                  cluster.execs[0]->module)
                      .bytesAllocated /
                  (1024.0 * 1024.0),
              "MiB");
        return;
    }

    // Each traced round records one of replicas * tp devices; together
    // they record every device once, against one untraced round each.
    traced_s /= traced_rounds;
    std::cerr << w.name << ": tracing overhead "
              << (traced_s / serve_s[0] - 1.0) * 100.0
              << "% of serve time (" << serve_s[0] << " s untraced, "
              << traced_s << " s per traced round)\n";
    m.set("frontend.build_ms",
          *std::min_element(build_ms.begin(), build_ms.end()), "ms");
    m.set("frontend.compile_ms",
          *std::min_element(compile_s.begin(), compile_s.end()) * 1e3, "ms");
    PassProfile profile =
        compileByPass(frontend::buildLlama(w.model), w.compile);
    result.ledger.check(sameExecutable(*profile.exec, *cluster.execs[0]),
                        w.name + ": pass-by-pass executable differs from "
                                 "compile()'s");
    setPassMetrics({profile}, m);
    relax::passes::MemoryPlanReport plan =
        relax::passes::memoryPlanReport(cluster.execs[0]->module);
    m.set("passes.inplace_rewrites", (double)plan.inplaceWrites, "count");
    m.set("passes.plan_reuse_hits", (double)plan.reuseHits, "count");

    InvokeProbe probe =
        probeInvoke(cluster.execs[0], w.model, w.spec, w.tp, w.interconnect,
                    /*batch=*/8, /*context=*/1024, /*calls=*/20);
    m.set("vm.instrs", (double)probe.instrs, "count");
    m.set("vm.kernels_per_call", (double)probe.kernels, "count");
    m.set("vm.library_calls_per_call", (double)probe.libraryCalls, "count");
    m.set("vm.invoke_host_us", probe.hostUs, "us");
    setServeMetrics(first.totals, digest.device, digest.engine, serve_s[0],
                    m);
    m.set("router.imbalance", first.imbalance, "ratio");
    m.set("router.prefix_local_ratio", first.prefixLocal, "ratio");
}

} // namespace stackbench
