/**
 * @file
 * serve-knn: knn queries (256 references x 4 dims x 16 bits) through
 * a RequestCoalescer (8-way, 200 us linger, Warn lint) over a
 * 2-device StreamExecutor — the serving batch of the ROADMAP. One
 * load-generating thread runs one-second cycles of three phases:
 *   1. light open loop (500 req/s, 0.2 s): batches mostly hold one
 *      request, so latency is linger + one batch's fixed costs;
 *   2. nominal open loop (4000 req/s, 0.4 s; a constant well below
 *      capacity): latency timed from each request's due time;
 *   3. closed loop of full batches (two batches outstanding, 0.4 s):
 *      the capacity.
 * Before the cycles, 16 full batches give the modeled cost of one.
 * Each latency or capacity figure is the least-disturbed quartile of
 * its per-cycle values, so every figure samples the whole run and a
 * host stall lands on a few cycles, not on the result.
 * Per-batch fixed costs dominate here — executor-wide staging and
 * readback syncs, the submit path, one device idling while the other
 * replays — and the shared reference columns keep the stream cache
 * busy.
 */

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "runtime/stream_executor.h"
#include "serve/workloads.h"
#include "serving.h"
#include "trace.h"

namespace simbench
{

using namespace simdram;

namespace
{

constexpr size_t kDevices = 2;
constexpr size_t kMaxBatch = 8;
constexpr double kLingerUs = 200.0;
constexpr KnnServeSpec kSpec{/*refs=*/256, /*dims=*/4, /*bits=*/16};
constexpr double kLightRps = 500.0;
constexpr double kNominalRps = 4000.0;
/** One cycle of the three phases, and the light / nominal shares. */
constexpr double kCycleS = 1.0;
constexpr double kLightShare = 0.2;
constexpr double kNominalShare = 0.4;
constexpr size_t kPool = 64;
constexpr size_t kSetups = 15;
/** Full batches after set-up that give the modeled metrics. */
constexpr size_t kModelBatches = 16;

DramConfig
serveCfg()
{
    // Wide rows + deep subarrays so a full batch co-locates.
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

StreamExecutorOptions
serveExOpts()
{
    StreamExecutorOptions o;
    o.lintMode = LintMode::Warn;
    return o;
}

struct KnnRig
{
    DeviceGroup group;
    StreamExecutor ex;
    TimedService svc;
    RequestCoalescer co;
    uint32_t cls;

    KnnRig(const std::vector<std::vector<uint64_t>> &refs,
           Tracer *tracer)
        : group(serveCfg(), kDevices), ex(group, serveExOpts()),
          svc(ex, tracer,
              {"serve.batch", "runtime.stage", "runtime.submit",
               "runtime.device", "runtime.readback"}),
          co(svc, CoalescerOptions{kMaxBatch, kLingerUs, 0,
                                   AdmissionPolicy::Block, {}}),
          cls(co.registerClass(knnQueryClass(kSpec, refs)))
    {}
};

RequestPool
makePool(uint64_t seed, std::vector<std::vector<uint64_t>> &refs)
{
    Gen g(seed * 0x2545f4914f6cdd1dULL + 3);
    refs.assign(kSpec.dims, std::vector<uint64_t>(kSpec.refs));
    for (auto &col : refs)
        for (auto &v : col)
            v = g.below(1000);
    RequestPool pool;
    for (size_t q = 0; q < kPool; ++q) {
        std::vector<uint64_t> coords(kSpec.dims);
        for (auto &c : coords)
            c = g.below(1000);
        pool.inputs.push_back(knnQueryRequest(kSpec, coords));
        // The expected distances, from the benchmark's own arithmetic.
        std::vector<uint64_t> dist(kSpec.refs, 0);
        for (size_t i = 0; i < kSpec.refs; ++i) {
            uint64_t d = 0;
            for (size_t k = 0; k < kSpec.dims; ++k)
                d += refs[k][i] > coords[k] ? refs[k][i] - coords[k]
                                            : coords[k] - refs[k][i];
            dist[i] = d & maskOf(kSpec.bits);
        }
        pool.expect.push_back(std::move(dist));
    }
    return pool;
}

InFlight
send(KnnRig &rig, const RequestPool &pool, Clock::time_point due,
     uint64_t id)
{
    return simbench::send(rig.co, rig.cls, pool, due, id);
}

/** Sends @p count requests at @p rps; @return what they saw. */
PhaseStats
openLoop(KnnRig &rig, const RequestPool &pool, double rps, size_t count,
         uint64_t &nextId, Tracer *tracer)
{
    PhaseStats ps;
    std::deque<InFlight> q;
    const auto start = Clock::now() + fromNs(1e6);
    for (size_t i = 0; i < count; ++i) {
        const auto due =
            start + fromNs(1e9 * static_cast<double>(i) / rps);
        std::this_thread::sleep_until(due);
        q.push_back(send(rig, pool, due, nextId++));
        while (!q.empty() && q.front().future.done()) {
            ps.finish(q.front(), pool, tracer, "serve.request");
            q.pop_front();
        }
    }
    for (InFlight &f : q)
        ps.finish(f, pool, tracer, "serve.request");
    return ps;
}

} // namespace

Outcome
runServeKnn(const Args &args, Tracer *tracer)
{
    Outcome o;
    o.headline = "p50_ms";
    o.headlineHigher = false;

    std::vector<std::vector<uint64_t>> refs;
    const RequestPool pool = makePool(args.seed, refs);
    uint64_t nextId = 0;

    // Set-up: device group, executor, coalescer, class registration
    // and one full warm-up batch (object definition, μProgram
    // synthesis, replay plans, resident reference columns); repeated,
    // the last rig is kept.
    std::unique_ptr<KnnRig> rig;
    std::vector<double> setupS;
    for (size_t i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        rig.reset();
        rig = std::make_unique<KnnRig>(
            refs, i + 1 == kSetups ? tracer : nullptr);
        PhaseStats warm;
        std::vector<InFlight> fs;
        for (size_t r = 0; r < kMaxBatch; ++r)
            fs.push_back(send(*rig, pool, Clock::now(), nextId++));
        for (InFlight &f : fs)
            warm.finish(f, pool, nullptr, "");
        setupS.push_back(nsBetween(t0, Clock::now()) / 1e9);
        o.attempted += kMaxBatch;
        o.failed += warm.failed;
        o.correct = o.correct && warm.wrong == 0;
    }
    rig->co.drain();
    rig->svc.takeBatches();

    // The modeled cost of a full batch, from the first kModelBatches
    // batches after set-up. A stream's modeled cost is the difference
    // of cumulative device counters, so its last digits depend on the
    // device's history; this history is the same in every run.
    PhaseStats model;
    model.keepSamples = false;
    for (size_t b = 0; b < kModelBatches; ++b) {
        std::vector<InFlight> fs;
        for (size_t r = 0; r < kMaxBatch; ++r)
            fs.push_back(send(*rig, pool, Clock::now(), nextId++));
        for (InFlight &f : fs)
            model.finish(f, pool, tracer, "serve.request");
    }
    rig->co.drain();
    BatchTotals modelB;
    modelB.add(rig->svc.takeBatches());
    uint64_t batches0 = rig->co.dispatchedBatches();

    // Cycles of the three phases, so that every metric samples the
    // whole run; each metric is the least-disturbed quartile of its
    // per-cycle values.
    const size_t cycles = std::max<size_t>(
        1, static_cast<size_t>(args.seconds / kCycleS + 0.5));
    const auto lightN =
        static_cast<size_t>(kLightRps * kLightShare * kCycleS);
    const auto nomN =
        static_cast<size_t>(kNominalRps * kNominalShare * kCycleS);
    const double closedNs =
        (1.0 - kLightShare - kNominalShare) * kCycleS * 1e9;
    PhaseStats light, nom, closed;
    closed.keepSamples = false;
    BatchTotals lightB, nomB, closedB;
    std::vector<double> lightP50, nomP50, nomP90, capacity;
    uint64_t nomBatches = 0, closedBatches = 0;
    std::vector<double> devBusy(kDevices, 0.0);
    auto take = [&](BatchTotals &into) {
        rig->co.drain();
        into.add(rig->svc.takeBatches());
        const uint64_t n = rig->co.dispatchedBatches() - batches0;
        batches0 = rig->co.dispatchedBatches();
        return n;
    };
    for (size_t c = 0; c < cycles; ++c) {
        // 1. Light open loop.
        PhaseStats l =
            openLoop(*rig, pool, kLightRps, lightN, nextId, tracer);
        take(lightB);
        lightP50.push_back(median(l.latencyNs));
        light.merge(l);

        // 2. Nominal open loop.
        PhaseStats n =
            openLoop(*rig, pool, kNominalRps, nomN, nextId, tracer);
        nomBatches += take(nomB);
        nomP50.push_back(median(n.latencyNs));
        nomP90.push_back(quantile(n.latencyNs, 0.9));
        nom.merge(n);

        // 3. Closed loop: two full batches outstanding; each group of
        // kMaxBatch back-to-back submits closes one batch at maxBatch.
        std::vector<DramStats> dev0;
        for (size_t d = 0; d < kDevices; ++d)
            dev0.push_back(rig->group.deviceComputeStats(d));
        std::deque<InFlight> q;
        const auto cStart = Clock::now();
        const auto cStop = cStart + fromNs(closedNs);
        for (size_t r = 0; r < 2 * kMaxBatch; ++r)
            q.push_back(send(*rig, pool, Clock::now(), nextId++));
        size_t done = 0;
        while (true) {
            for (size_t r = 0; r < kMaxBatch; ++r) {
                closed.finish(q.front(), pool, tracer, "serve.request");
                q.pop_front();
            }
            done += kMaxBatch;
            if (Clock::now() >= cStop)
                break;
            for (size_t r = 0; r < kMaxBatch; ++r)
                q.push_back(send(*rig, pool, Clock::now(), nextId++));
        }
        capacity.push_back(static_cast<double>(done) * 1e9 /
                           nsBetween(cStart, Clock::now()));
        for (InFlight &f : q)
            closed.finish(f, pool, tracer, "serve.request");
        closedBatches += take(closedB);
        for (size_t d = 0; d < kDevices; ++d)
            devBusy[d] +=
                diff(rig->group.deviceComputeStats(d), dev0[d])
                    .latencyNs;
    }
    const double devMin =
        *std::min_element(devBusy.begin(), devBusy.end());
    const double devMax =
        *std::max_element(devBusy.begin(), devBusy.end());

    for (const PhaseStats *p : {&model, &light, &nom, &closed}) {
        o.attempted += p->completed + p->failed;
        o.failed += p->failed;
        if (p->wrong)
            o.correct = false;
    }
    if (rig->ex.lintDiagnosticCount() != 0) {
        std::printf("serve-knn: batch programs did not analyze clean\n");
        o.correct = false;
    }

    const double liveOps = static_cast<double>(
        kMaxBatch * kSpec.refs * modelB.opInstructions) /
        static_cast<double>(modelB.batches);
    const double modeledNs = median(modelB.modeledNs);
    const double energyPj = median(modelB.energyPj);

    o.endToEnd = {
        {"setup_s", median(setupS), "s"},
        {"light_p50_ms", leastDisturbed(lightP50, false) / 1e6, "ms"},
        {"p50_ms", leastDisturbed(nomP50, false) / 1e6, "ms"},
        {"p90_ms", leastDisturbed(nomP90, false) / 1e6, "ms"},
        {"capacity_rps", leastDisturbed(capacity, true), "req/s"},
        {"modeled_gops", liveOps / modeledNs, "Gop/s"},
        {"modeled_nj_per_op", energyPj / 1e3 / liveOps, "nJ"},
    };
    o.modeled = {o.endToEnd[5], o.endToEnd[6]};

    const double closedReqs = static_cast<double>(closed.completed);
    const double computedOps = static_cast<double>(
        kMaxBatch * kSpec.refs * closedB.opInstructions);
    o.perLayer = {
        {"runtime.submit_us", lightB.perBatchUs(lightB.submitNs), "us"},
        {"runtime.stage_us", nomB.perBatchUs(nomB.stageNs), "us"},
        {"runtime.device_us", nomB.perBatchUs(nomB.deviceNs), "us"},
        {"runtime.readback_us", nomB.perBatchUs(nomB.readbackNs),
         "us"},
        {"runtime.queue_depth", nomB.meanQueueDepth(), "streams"},
        {"runtime.device_balance", devMax > 0 ? devMin / devMax : 0,
         "ratio"},
        {"serve.coalesce_us", mean(nom.queueNs) / 1e3, "us"},
        {"serve.execute_us", mean(nom.executeNs) / 1e3, "us"},
        {"serve.batch_fill",
         closedReqs / static_cast<double>(closedBatches), "req"},
        {"serve.lane_use",
         static_cast<double>(nom.completed) /
             static_cast<double>(nomBatches * kMaxBatch),
         "ratio"},
        {"stream.optimized_instr",
         static_cast<double>(closedB.optimized) /
             static_cast<double>(closedB.batches),
         "count"},
        {"stream.cached_frac",
         static_cast<double>(closedB.cached) /
             static_cast<double>(closedB.instructions),
         "ratio"},
        {"exec.run_ns_per_elem", closedB.deviceNs / computedOps, "ns"},
        {"dram.compute_ns", median(modelB.computeNs), "model_ns"},
        {"dram.transfer_ns", median(modelB.transferNs), "model_ns"},
        {"dram.energy_pj", energyPj, "pJ"},
        {"dram.tras", median(modelB.tras), "count"},
    };
    std::printf("serve-knn: light %zu req (gen late max %.3f ms), "
                "nominal %zu req in %llu batches (gen late max %.3f "
                "ms, p99 %.3f ms), closed %zu req in %llu batches\n",
                light.latencyNs.size(), light.maxLateNs / 1e6,
                nom.latencyNs.size(),
                static_cast<unsigned long long>(nomBatches),
                nom.maxLateNs / 1e6,
                quantile(nom.latencyNs, 0.99) / 1e6,
                static_cast<size_t>(closed.completed),
                static_cast<unsigned long long>(closedBatches));
    return o;
}

} // namespace simbench
