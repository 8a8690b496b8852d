/**
 * @file
 * tenant-mix: one TenantExecutor over a 2-device StreamExecutor
 * serves two tenants, each behind its own RequestCoalescer (8-way,
 * 200 us linger, no shedding):
 *  - a flooding tenant sends 512-pixel brightness tiles in a closed
 *    loop with two batches' worth of requests outstanding — write
 *    heavy, every request carries its whole pixel vector;
 *  - a victim tenant sends 256-row tpch-filter chunks (32-bit column,
 *    1-bit output) open loop at a fixed 1000 req/s.
 * One load-generating thread drives both, sleeping until the next
 * victim send or the next completion poll. This is the only workload
 * through tenant namespaces, DRR scheduling and the scheduler/reaper
 * threads, and the only one where one tenant's writes and syncs land
 * on another tenant's latency.
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
#include "tenant/tenant_executor.h"
#include "trace.h"
#include "uprog_probe.h"

namespace simbench
{

using namespace simdram;

namespace
{

constexpr size_t kDevices = 2;
constexpr size_t kMaxBatch = 8;
constexpr double kLingerUs = 200.0;
constexpr BrightnessTileSpec kTile{/*pixels=*/512, /*bits=*/16,
                                   /*cap=*/50000};
constexpr TpchFilterSpec kChunk{/*rows=*/256, /*bits=*/32};
constexpr double kVictimRps = 1000.0;
constexpr size_t kFloodWindow = 2 * kMaxBatch;
/** Completion poll period of the generator thread. */
constexpr double kPollNs = 50e3;
constexpr size_t kPool = 64;
constexpr size_t kSetups = 15;
/** Victim requests per latency window. */
constexpr size_t kWindow = 1000;
/** Flooder completions per capacity chunk. */
constexpr size_t kRateChunk = 200;
/** Fresh Processors timed for uprog.compile_ms. */
constexpr size_t kUprogReps = 5;

DramConfig
tenantCfg()
{
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

StreamExecutorOptions
tenantExOpts()
{
    StreamExecutorOptions o;
    o.lintMode = LintMode::Warn;
    return o;
}

TenantConfig
tenant(const char *name)
{
    TenantConfig c;
    c.name = name;
    c.onFull = TenantQuotaPolicy::Block;
    return c;
}

CoalescerOptions
coOpts(const char *tag)
{
    return CoalescerOptions{kMaxBatch, kLingerUs, 0,
                            AdmissionPolicy::Block, tag};
}

struct TenantRig
{
    DeviceGroup group;
    StreamExecutor ex;
    TenantExecutor te;
    uint32_t flood, victim;
    TimedService floodSvc, victimSvc;
    RequestCoalescer floodCo, victimCo;
    uint32_t floodCls, victimCls;

    explicit TenantRig(Tracer *tracer)
        : group(tenantCfg(), kDevices), ex(group, tenantExOpts()),
          te(ex), flood(te.registerTenant(tenant("flood"))),
          victim(te.registerTenant(tenant("victim"))),
          floodSvc(te.view(flood), tracer,
                   {"flood.batch", "flood.stage", "flood.submit",
                    "flood.complete", "flood.readback"}),
          victimSvc(te.view(victim), tracer,
                    {"serve.batch", "runtime.stage", "tenant.submit",
                     "tenant.complete", "runtime.readback"}),
          floodCo(floodSvc, coOpts("flood")),
          victimCo(victimSvc, coOpts("victim")),
          floodCls(floodCo.registerClass(brightnessTileClass(kTile))),
          victimCls(victimCo.registerClass(tpchFilterClass(kChunk)))
    {}
};

void
makePools(uint64_t seed, RequestPool &tiles, RequestPool &chunks)
{
    Gen g(seed * 0x9e3779b97f4a7c15ULL + 11);
    for (size_t q = 0; q < kPool; ++q) {
        // Pixels and deltas keep pixel + delta inside 16 bits, so the
        // expected value is the plain saturating min(p + d, cap).
        std::vector<uint64_t> px(kTile.pixels), out(kTile.pixels);
        const uint64_t delta = g.below(20000);
        for (size_t i = 0; i < px.size(); ++i) {
            px[i] = g.below(40000);
            out[i] = std::min<uint64_t>(px[i] + delta, kTile.cap);
        }
        tiles.inputs.push_back(brightnessTileRequest(kTile, px, delta));
        tiles.expect.push_back(std::move(out));

        std::vector<uint64_t> col(kChunk.rows), mask(kChunk.rows);
        const uint64_t thr = g.next() & maskOf(kChunk.bits);
        for (size_t i = 0; i < col.size(); ++i) {
            col[i] = g.next() & maskOf(kChunk.bits);
            mask[i] = col[i] > thr;
        }
        chunks.inputs.push_back(tpchFilterRequest(kChunk, col, thr));
        chunks.expect.push_back(std::move(mask));
    }
}

/** @return True iff per-tenant stats sum to the fleet's. */
bool
statsConsistent(const TenantStats &a, const TenantStats &b,
                const TenantStats &fleet)
{
    auto sums = [&](auto field) {
        return a.*field + b.*field == fleet.*field;
    };
    return sums(&TenantStats::submitted) &&
           sums(&TenantStats::executed) && sums(&TenantStats::failed) &&
           sums(&TenantStats::shed) &&
           sums(&TenantStats::instructions) &&
           sums(&TenantStats::cachedInstructions) &&
           sums(&TenantStats::optimizedInstructions) &&
           a.compute.aaps + b.compute.aaps == fleet.compute.aaps &&
           a.compute.aps + b.compute.aps == fleet.compute.aps;
}

} // namespace

Outcome
runTenantMix(const Args &args, Tracer *tracer)
{
    Outcome o;
    o.headline = "p90_ms";
    o.headlineHigher = false;

    RequestPool tiles, chunks;
    makePools(args.seed, tiles, chunks);
    uint64_t nextId = 0;

    // Set-up: executor, tenants, coalescers and one full warm-up
    // batch per tenant; repeated, the last rig is kept.
    std::unique_ptr<TenantRig> rig;
    std::vector<double> setupS;
    for (size_t i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        rig.reset();
        rig = std::make_unique<TenantRig>(i + 1 == kSetups ? tracer
                                                           : nullptr);
        PhaseStats warmF, warmV;
        std::vector<InFlight> fs, vs;
        for (size_t r = 0; r < kMaxBatch; ++r) {
            fs.push_back(send(rig->floodCo, rig->floodCls, tiles,
                              Clock::now(), nextId++));
            vs.push_back(send(rig->victimCo, rig->victimCls, chunks,
                              Clock::now(), nextId++));
        }
        for (size_t r = 0; r < kMaxBatch; ++r) {
            warmF.finish(fs[r], tiles, nullptr, "");
            warmV.finish(vs[r], chunks, nullptr, "");
        }
        setupS.push_back(nsBetween(t0, Clock::now()) / 1e9);
        o.attempted += 2 * kMaxBatch;
        o.failed += warmF.failed + warmV.failed;
        o.correct = o.correct && warmF.wrong + warmV.wrong == 0;
    }
    rig->floodCo.drain();
    rig->victimCo.drain();
    rig->floodSvc.takeBatches();
    rig->victimSvc.takeBatches();
    const uint64_t vBatches0 = rig->victimCo.dispatchedBatches();

    // The mixed window: the victim's schedule sets its length; the
    // flooder keeps kFloodWindow requests outstanding throughout.
    const auto victimN =
        static_cast<size_t>(kVictimRps * args.seconds);
    PhaseStats victim, flood;
    flood.keepSamples = false;
    BatchTotals vB, fB;
    std::deque<InFlight> vq, fq;
    // The flooder's rate over consecutive chunks of kRateChunk
    // completions, and the victim requests completed in each chunk: a
    // host stall weighs on a few chunks, not the window.
    std::vector<double> floodRates, chunkVictims, chunkNs;
    size_t chunkDone = 0;
    uint64_t chunkVictim0 = 0;
    const auto start = Clock::now() + fromNs(1e6);
    auto dueOf = [&](size_t i) {
        return start +
               fromNs(1e9 * static_cast<double>(i) / kVictimRps);
    };
    auto chunkStart = Clock::now();
    for (size_t r = 0; r < kFloodWindow; ++r)
        fq.push_back(send(rig->floodCo, rig->floodCls, tiles,
                          Clock::now(), nextId++));
    size_t sent = 0;
    while (sent < victimN) {
        const auto now = Clock::now();
        if (now >= dueOf(sent)) {
            vq.push_back(send(rig->victimCo, rig->victimCls, chunks,
                              dueOf(sent), nextId++));
            ++sent;
            continue;
        }
        while (!vq.empty() && vq.front().future.done()) {
            victim.finish(vq.front(), chunks, tracer, "victim.request");
            vq.pop_front();
        }
        while (fq.front().future.done()) {
            flood.finish(fq.front(), tiles, tracer, "flood.request");
            fq.pop_front();
            if (++chunkDone == kRateChunk) {
                const double ns = nsBetween(chunkStart, now);
                floodRates.push_back(static_cast<double>(kRateChunk) *
                                     1e9 / ns);
                chunkVictims.push_back(
                    static_cast<double>(victim.completed - chunkVictim0));
                chunkNs.push_back(ns);
                chunkVictim0 = victim.completed;
                chunkStart = now;
                chunkDone = 0;
            }
            fq.push_back(send(rig->floodCo, rig->floodCls, tiles, now,
                              nextId++));
        }
        vB.add(rig->victimSvc.takeBatches());
        fB.add(rig->floodSvc.takeBatches());
        std::this_thread::sleep_until(
            std::min(dueOf(sent), now + fromNs(kPollNs)));
    }
    for (InFlight &f : vq)
        victim.finish(f, chunks, tracer, "victim.request");
    for (InFlight &f : fq)
        flood.finish(f, tiles, tracer, "flood.request");
    rig->floodCo.drain();
    rig->victimCo.drain();
    // Tenant stats are read only after drain(): a handle that wait()
    // returned for may not be accounted yet.
    rig->te.drain();
    const TenantStats fs = rig->te.stats(rig->flood);
    const TenantStats vs = rig->te.stats(rig->victim);
    const TenantStats fleet = rig->te.fleetStats();
    vB.add(rig->victimSvc.takeBatches());
    fB.add(rig->floodSvc.takeBatches());
    const uint64_t vBatches =
        rig->victimCo.dispatchedBatches() - vBatches0;

    for (const PhaseStats *p : {&victim, &flood}) {
        o.attempted += p->completed + p->failed;
        o.failed += p->failed;
        if (p->wrong)
            o.correct = false;
    }
    const bool statsOk = statsConsistent(fs, vs, fleet) &&
                         fs.executed == fs.submitted &&
                         vs.executed == vs.submitted &&
                         fleet.failed == 0 && fleet.shed == 0;
    if (!statsOk) {
        std::printf("tenant-mix: tenant stats inconsistent after "
                    "drain\n");
        o.correct = false;
    }
    if (rig->ex.lintDiagnosticCount() != 0) {
        std::printf("tenant-mix: streams did not analyze clean\n");
        o.correct = false;
    }

    // Victim latency per window of kWindow requests (in send order),
    // reported as the least-disturbed quartile over windows.
    std::vector<double> p50, p90;
    for (size_t i = 0; i + kWindow <= victim.latencyNs.size();
         i += kWindow) {
        const std::vector<double> w(
            victim.latencyNs.begin() + static_cast<std::ptrdiff_t>(i),
            victim.latencyNs.begin() +
                static_cast<std::ptrdiff_t>(i + kWindow));
        p50.push_back(median(w));
        p90.push_back(quantile(w, 0.9));
    }
    // Element ops per request: a batch program applies its op
    // instructions to every lane of every request in it.
    const double floodOps = static_cast<double>(fB.opInstructions) /
                            static_cast<double>(fB.batches) *
                            static_cast<double>(kTile.pixels);
    const double victimOps = static_cast<double>(vB.opInstructions) /
                             static_cast<double>(vB.batches) *
                             static_cast<double>(kChunk.rows);
    // host_mops: both tenants' element ops in each capacity chunk.
    std::vector<double> mops;
    for (size_t i = 0; i < chunkNs.size(); ++i)
        mops.push_back((static_cast<double>(kRateChunk) * floodOps +
                        chunkVictims[i] * victimOps) /
                       chunkNs[i] * 1e3);
    // The modeled figures are those of one full flood batch (every
    // flood batch computes the same rows), at the median batch cost.
    const double fullOps = static_cast<double>(kMaxBatch) * floodOps;
    const double modeledNs = median(fB.modeledNs);
    const double energyPj = median(fB.energyPj);
    o.endToEnd = {
        {"setup_s", median(setupS), "s"},
        {"host_mops", leastDisturbed(mops, true), "Mop/s"},
        {"modeled_gops", fullOps / modeledNs, "Gop/s"},
        {"modeled_nj_per_op", energyPj / 1e3 / fullOps, "nJ"},
        {"p50_ms", leastDisturbed(p50, false) / 1e6, "ms"},
        {"p90_ms", leastDisturbed(p90, false) / 1e6, "ms"},
        {"capacity_rps", leastDisturbed(floodRates, true), "req/s"},
    };
    const double staged =
        static_cast<double>(vB.stagedElems + fB.stagedElems);
    const double read = static_cast<double>(vB.readElems + fB.readElems);
    o.perLayer = {
        {"layout.store_ns_per_elem", (vB.stageNs + fB.stageNs) / staged,
         "ns"},
        {"layout.load_ns_per_elem",
         (vB.readbackNs + fB.readbackNs) / read, "ns"},
        {"dram.compute_ns", median(fB.computeNs), "model_ns"},
        {"dram.transfer_ns", median(fB.transferNs), "model_ns"},
        {"dram.energy_pj", energyPj, "pJ"},
        {"dram.tras", median(fB.tras), "count"},
        {"runtime.stage_us", vB.perBatchUs(vB.stageNs), "us"},
        {"runtime.readback_us", vB.perBatchUs(vB.readbackNs), "us"},
        {"runtime.queue_depth", vB.meanQueueDepth(), "streams"},
        {"serve.coalesce_us", mean(victim.queueNs) / 1e3, "us"},
        {"serve.execute_us", mean(victim.executeNs) / 1e3, "us"},
        {"serve.batch_fill",
         static_cast<double>(victim.completed) /
             static_cast<double>(vBatches),
         "req"},
        {"serve.lane_use",
         static_cast<double>(victim.completed) /
             static_cast<double>(vBatches * kMaxBatch),
         "ratio"},
        {"stream.optimized_instr",
         static_cast<double>(vB.optimized) /
             static_cast<double>(vB.batches),
         "count"},
        {"stream.cached_frac",
         static_cast<double>(vB.cached) /
             static_cast<double>(vB.instructions),
         "ratio"},
        {"tenant.submit_us", vB.perBatchUs(vB.submitNs), "us"},
        {"tenant.complete_us", vB.perBatchUs(vB.deviceNs), "us"},
        {"tenant.flood_share",
         static_cast<double>(fs.instructions) /
             static_cast<double>(fleet.instructions),
         "ratio"},
    };
    if (tracer) {
        const UprogCost u = probeUprog(
            tenantCfg(),
            {{OpKind::Add, kTile.bits}, {OpKind::Gt, kTile.bits},
             {OpKind::IfElse, kTile.bits}, {OpKind::Gt, kChunk.bits}},
            kUprogReps, tracer);
        o.perLayer.push_back({"uprog.compile_ms", u.compileMs, "ms"});
        o.perLayer.push_back(
            {"uprog.aaps", static_cast<double>(u.aaps), "count"});
        o.perLayer.push_back(
            {"uprog.aps", static_cast<double>(u.aps), "count"});
    }
    std::printf("tenant-mix: victim %zu req in %llu batches (gen late "
                "max %.3f ms, p99 %.3f ms), flooder %zu req in %zu "
                "batches (%.0f element ops each); fleet streams %llu "
                "submitted, %llu executed\n",
                victim.latencyNs.size(),
                static_cast<unsigned long long>(vBatches),
                victim.maxLateNs / 1e6,
                quantile(victim.latencyNs, 0.99) / 1e6,
                static_cast<size_t>(flood.completed), fB.batches,
                floodOps,
                static_cast<unsigned long long>(fleet.submitted),
                static_cast<unsigned long long>(fleet.executed));
    return o;
}

} // namespace simbench
