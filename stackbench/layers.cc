/**
 * @file
 * Per-layer read-outs built only from public entry points: the pass
 * pipeline rebuilt one pass at a time from the constructors in
 * passes/passes.h, digests of the program's own TraceRecorder events,
 * and a direct timing-mode VirtualMachine::invoke of `decode_ragged`.
 */
#include <algorithm>
#include <map>

#include "bench.h"
#include "passes/passes.h"
#include "serve/engine.h"

namespace stackbench {

namespace passes = relax::passes;
using relax::TraceArg;
using relax::TraceRecorder;

int64_t
countBindings(const relax::ir::IRModulePtr& module)
{
    int64_t count = 0;
    for (const auto& [name, func] : module->functions()) {
        if (func->body->kind() != relax::ir::RxKind::kSeqExpr) continue;
        auto seq =
            std::static_pointer_cast<relax::ir::SeqExprNode>(func->body);
        for (const auto& block : seq->blocks) {
            count += (int64_t)block->bindings.size();
        }
    }
    return count;
}

const std::vector<std::string>&
pipelinePassNames()
{
    static const std::vector<std::string> names = {
        "Shard",          "Normalize",           "ConstantFold",
        "PartialLibraryLowering", "LegalizeOps", "DeadCodeElimination",
        "AnnotateTIRPatterns",    "FuseOps",     "FuseTensorIR",
        "WorkspaceLifting",       "InplacePlan", "LowerCallTIR",
        "StaticMemoryPlan",       "GraphOffload",
    };
    return names;
}

PassProfile
compileByPass(relax::ir::IRModulePtr module,
              const frontend::CompileOptions& options)
{
    // compile()'s pipeline, pass for pass (frontend/compile.cc).
    passes::TargetInfo target =
        frontend::targetFromDevice(options.device, options);
    std::vector<passes::Pass> pipeline;
    if (options.tensorParallel > 1) {
        pipeline.push_back(passes::shardPass(options.tensorParallel));
    }
    pipeline.push_back(passes::normalizePass());
    pipeline.push_back(passes::constantFoldPass());
    if (options.enableLibraryLowering) {
        pipeline.push_back(passes::partialLibraryLoweringPass(target));
    }
    pipeline.push_back(passes::legalizeOpsPass());
    pipeline.push_back(passes::deadCodeEliminationPass());
    pipeline.push_back(passes::annotateTIRPatternsPass());
    if (options.enableFusion) {
        pipeline.push_back(passes::fuseOpsPass());
        pipeline.push_back(passes::fuseTensorIRPass());
    }
    pipeline.push_back(passes::workspaceLiftingPass());
    if (options.enableInplacePlanning) {
        pipeline.push_back(passes::inplacePlanPass());
    }
    pipeline.push_back(passes::lowerCallTIRPass());
    if (options.enableMemoryPlanning) {
        pipeline.push_back(passes::staticMemoryPlanPass(options.bounds));
    }
    if (target.supportsExecutionGraphs) {
        pipeline.push_back(passes::graphOffloadPass(target));
    }

    PassProfile profile;
    for (const passes::Pass& pass : pipeline) {
        double start = hostSeconds();
        module = pass.run(std::move(module));
        profile.ms.push_back((hostSeconds() - start) * 1e3);
        profile.names.push_back(pass.name);
        profile.bindings.push_back(countBindings(module));
    }
    profile.exec = vm::buildExecutable(module);
    return profile;
}

bool
sameExecutable(const vm::Executable& a, const vm::Executable& b)
{
    if (a.functions.size() != b.functions.size()) return false;
    for (const auto& [name, func] : a.functions) {
        auto it = b.functions.find(name);
        if (it == b.functions.end()) return false;
        if (vm::toString(func) != vm::toString(it->second)) return false;
    }
    return true;
}

namespace {

double
argOf(const TraceRecorder::Event& event, const char* key)
{
    for (const TraceArg& arg : event.args) {
        if (arg.key != key) continue;
        return arg.kind == TraceArg::Kind::kInt ? (double)arg.i : arg.d;
    }
    return 0.0;
}

bool
contains(const std::string& s, const char* part)
{
    return s.find(part) != std::string::npos;
}

} // namespace

void
DeviceDigest::add(const TraceRecorder& trace, double graph_capture_us)
{
    for (const TraceRecorder::Event& e : trace.events()) {
        if (e.ph != 'X') continue;
        if (e.cat == "collective") {
            // Every member of a group stamps the collective on its own
            // lane; count it once, from device 0.
            if (e.pid != 0) continue;
            ++collectives;
            collectiveUs += e.dur;
            collectiveBytes += argOf(e, "bytes");
            continue;
        }
        if (e.cat == "graph" && e.name == "graph(capture)") {
            captureUs += graph_capture_us;
            continue;
        }
        if (e.cat != "kernel") continue;
        ++launches;
        bytes += argOf(e, "bytes");
        flops += argOf(e, "flops");
        launchUs += argOf(e, "launch_us");
        // Library and runtime kernels are dotted ("cublas.matmul",
        // "kv.append_ragged"); generated tensor programs are not.
        bool library = contains(e.name, ".");
        if (library) {
            ++libraryLaunches;
        } else {
            generatedUs += e.dur;
        }
        if (contains(e.name, "matmul") || contains(e.name, "gemm")) {
            gemmUs += e.dur;
        }
        if (contains(e.name, "attention")) attentionUs += e.dur;
        if (e.name.rfind("kv.append", 0) == 0) kvAppendUs += e.dur;
    }
}

void
EngineDigest::add(const TraceRecorder& trace)
{
    // Each request's wait runs from its latest enqueue (arrival or
    // re-queue after preemption) to the admission that follows it.
    std::map<int64_t, double> enqueued;
    for (const TraceRecorder::Event& e : trace.events()) {
        if (e.pid != relax::trace_lanes::kEngine) continue;
        if (e.ph == 'X' && e.name == "step") {
            ++stepSpans;
            rows += (int64_t)argOf(e, "rows");
        } else if (e.ph == 'i' && e.name == "enqueue") {
            enqueued[(int64_t)argOf(e, "request")] = e.ts;
        } else if (e.ph == 'i' && e.name == "admit") {
            auto it = enqueued.find((int64_t)argOf(e, "request"));
            if (it == enqueued.end()) continue;
            queueWaitUs.push_back(e.ts - it->second);
            enqueued.erase(it);
        }
    }
}

void
setPassMetrics(const std::vector<PassProfile>& profiles, Metrics& metrics)
{
    for (const std::string& pass : pipelinePassNames()) {
        double ms = 0.0, bindings = 0.0;
        for (const PassProfile& profile : profiles) {
            for (size_t i = 0; i < profile.names.size(); ++i) {
                if (profile.names[i] != pass) continue;
                ms += profile.ms[i];
                bindings += (double)profile.bindings[i];
            }
        }
        metrics.set("passes." + pass + ".ms", ms, "ms");
        metrics.set("passes." + pass + ".bindings", bindings, "count");
    }
}

void
setDeviceMetrics(const DeviceDigest& d, double idle_us, double peak_bytes,
                 Metrics& m)
{
    m.set("device.gemm_ms", d.gemmUs / 1e3, "ms");
    m.set("device.attention_ms", d.attentionUs / 1e3, "ms");
    m.set("device.kv_append_ms", d.kvAppendUs / 1e3, "ms");
    m.set("device.generated_ms", d.generatedUs / 1e3, "ms");
    m.set("device.launch_overhead_ms", d.launchUs / 1e3, "ms");
    m.set("device.graph_capture_ms", d.captureUs / 1e3, "ms");
    m.set("device.idle_ms", idle_us / 1e3, "ms");
    m.set("device.kernel_launches", (double)d.launches, "count");
    m.set("device.kernel_gb", d.bytes / 1e9, "GB");
    m.set("device.kernel_tflop", d.flops / 1e12, "TFLOP");
    m.set("device.collectives", (double)d.collectives, "count");
    m.set("device.collective_ms", d.collectiveUs / 1e3, "ms");
    m.set("device.collective_gb", d.collectiveBytes / 1e9, "GB");
    m.set("device.peak_mb", peak_bytes / (1024.0 * 1024.0), "MiB");
}

void
ServeTotals::addEngine(relax::serve::Engine& e)
{
    const relax::serve::EngineStats& es = e.stats();
    steps += es.steps;
    mixedSteps += es.prefillBatches;
    preemptions += es.evictions;
    replayBegins += es.decodeGraphBegins;
    replays += es.decodeGraphReplays;
    peakPages = std::max(peakPages, e.kv().peakPages());
    occupancySum += e.metrics().gauge("kv.occupancy").mean();
    ++engines;
    idleUs += e.machine().dev().clockUs() - es.busyUs;
    for (int d = 0; d < e.tensorParallel(); ++d) {
        device::SimDevice& dev = e.deviceGroup() ? e.deviceGroup()->device(d)
                                                 : e.machine().dev();
        peakDeviceBytes = std::max(peakDeviceBytes, (double)dev.peakBytes());
    }
}

bool
ServeTotals::operator==(const ServeTotals& o) const
{
    return steps == o.steps && mixedSteps == o.mixedSteps &&
           prompts == o.prompts && prefilled == o.prefilled &&
           preemptions == o.preemptions && peakPages == o.peakPages &&
           replayBegins == o.replayBegins && replays == o.replays &&
           occupancySum == o.occupancySum && engines == o.engines &&
           idleUs == o.idleUs && peakDeviceBytes == o.peakDeviceBytes;
}

void
setServeMetrics(const ServeTotals& t, const DeviceDigest& device,
                const EngineDigest& engine, double serve_cpu_s, Metrics& m)
{
    m.set("vm.host_us_per_step", serve_cpu_s * 1e6 / (double)t.steps, "us");
    m.set("vm.serve_cpu_s", serve_cpu_s, "s");
    m.set("vm.graph_replay_rate",
          t.replayBegins > 0 ? (double)t.replays / (double)t.replayBegins
                             : 0.0,
          "ratio");
    setDeviceMetrics(device, t.idleUs, t.peakDeviceBytes, m);
    m.set("serve.steps", (double)t.steps, "count");
    m.set("serve.rows_per_step",
          engine.stepSpans > 0
              ? (double)engine.rows / (double)engine.stepSpans
              : 0.0,
          "rows");
    m.set("serve.mixed_step_ratio", (double)t.mixedSteps / (double)t.steps,
          "ratio");
    m.set("serve.queue_wait_p50_ms", percentile(engine.queueWaitUs, 0.5) / 1e3,
          "ms");
    m.set("serve.queue_wait_p99_ms",
          percentile(engine.queueWaitUs, 0.99) / 1e3, "ms");
    // Reuse and recompute from prompt lengths against prefilled tokens:
    // without preemption the shortfall is prefix reuse, and with
    // unshared prompts the excess is recompute.
    int64_t reused = std::max<int64_t>(0, t.prompts - t.prefilled);
    m.set("kv.reused_prompt_tokens", (double)reused, "tokens");
    m.set("kv.reuse_ratio", (double)reused / (double)t.prompts, "ratio");
    m.set("kv.peak_pages", (double)t.peakPages, "pages");
    m.set("kv.occupancy_mean", t.occupancySum / (double)t.engines, "ratio");
    m.set("kv.preemptions", (double)t.preemptions, "count");
    m.set("kv.recompute_tokens",
          (double)std::max<int64_t>(0, t.prefilled - t.prompts), "tokens");
}

std::vector<vm::Value>
raggedArgs(const frontend::LlamaConfig& config,
           const std::vector<NDArray>& weights, int64_t batch,
           int64_t fresh, int64_t context, int shards)
{
    const int64_t block = 16;
    int64_t width = (context + fresh + block - 1) / block;
    std::vector<double> lens((size_t)batch, (double)context);
    std::vector<double> cu((size_t)batch + 1);
    for (int64_t r = 0; r <= batch; ++r) cu[(size_t)r] = (double)(r * fresh);
    std::vector<double> table((size_t)(batch * width));
    for (size_t i = 0; i < table.size(); ++i) table[i] = (double)i;

    std::vector<vm::Value> args;
    args.emplace_back(
        NDArray::metaOnly({1, batch * fresh}, relax::DataType::i64()));
    args.emplace_back(
        NDArray::fromVector({batch}, relax::DataType::i64(), lens));
    args.emplace_back(
        NDArray::fromVector({batch + 1}, relax::DataType::i64(), cu));
    args.emplace_back(
        NDArray::fromVector({batch, width}, relax::DataType::i64(), table));
    for (int64_t i = 0; i < 2 * config.numLayers; ++i) {
        args.emplace_back(NDArray::metaOnly(
            {batch * width, config.numHeads / shards, block, config.headDim},
            relax::DataType::f16()));
    }
    for (const NDArray& w : weights) args.emplace_back(w);
    return args;
}

InvokeProbe
probeInvoke(const vm::ExecutablePtr& exec,
            const frontend::LlamaConfig& config,
            const device::DeviceSpec& spec, int tp,
            const std::string& interconnect, int64_t batch,
            int64_t context, int calls)
{
    std::vector<NDArray> full = frontend::makeLlamaWeights(config, false);
    auto group = std::make_shared<device::DeviceGroup>(
        spec, tp, device::interconnectByName(interconnect));
    std::vector<std::unique_ptr<vm::VirtualMachine>> machines;
    std::vector<vm::VirtualMachine*> shards;
    std::vector<std::vector<vm::Value>> args;
    for (int s = 0; s < tp; ++s) {
        machines.push_back(std::make_unique<vm::VirtualMachine>(
            exec, group->devicePtr(s), /*data_mode=*/false));
        shards.push_back(machines.back().get());
        args.push_back(raggedArgs(
            config,
            tp > 1 ? frontend::shardLlamaWeights(config, full, s, tp) : full,
            batch, /*fresh=*/1, context, tp));
    }
    auto call = [&] {
        if (tp > 1) {
            vm::VirtualMachine::invokeLockstep(shards, *group,
                                               "decode_ragged", args);
        } else {
            machines[0]->invoke("decode_ragged", args[0]);
        }
    };

    call(); // capture graphs and pre-allocate static storage
    call();
    std::vector<double> host_us;
    for (int i = 0; i < calls; ++i) {
        double start = hostSeconds();
        call();
        host_us.push_back((hostSeconds() - start) * 1e6);
    }
    InvokeProbe probe;
    probe.hostUs = median(host_us);
    probe.kernels = machines[0]->lastRunStats().kernelLaunches;
    group->device(0).trace().enable();
    call();
    DeviceDigest digest;
    digest.add(group->device(0).trace(), 0.0);
    probe.libraryCalls = digest.libraryLaunches / tp;
    probe.instrs = (int64_t)exec->functions.at("decode_ragged").instrs.size();
    return probe;
}

} // namespace stackbench
