/**
 * @file
 * bulk-checked: one submitter streams chained arithmetic and
 * relational ops over 32768-lane, 16-bit vectors that span both
 * devices of a 2-device StreamExecutor, through a bounded queue (two
 * streams per device, Block) with IntegrityMode::Checksum. Each round
 * is four streams that ping-pong the state between two objects:
 *   A: t = x + a; y = t - b
 *   B: m = y > c; t = max(y, a); x = m ? t : c
 *   A, then B with a final trsp_inv of x,
 * after which x is read back and checked against the benchmark's own
 * host arithmetic. Both devices are busy and the integrity shadow
 * takes most of the host time, so this is where a HostInterpreter or
 * integrity change shows; the serving changes bypass it.
 */

#include <algorithm>
#include <numeric>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "runtime/stream_executor.h"
#include "trace.h"
#include "uprog_probe.h"

namespace simbench
{

using namespace simdram;

namespace
{

constexpr size_t kDevices = 2;
constexpr size_t kRowBits = 4096;
constexpr size_t kElems = 8 * kRowBits; // 4 segments per device
constexpr uint8_t kBits = 16;
/** Op instructions per round (A twice, B twice). */
constexpr size_t kOpsPerRound = 2 * (2 + 3);
constexpr size_t kSetups = 15;
/** Leading rounds whose modeled cost gives the modeled metrics. */
constexpr size_t kModelRounds = 8;
/** Rounds timed per integrity mode for runtime.integrity_cost. */
constexpr size_t kCostRounds = 30;
/** Rounds per latency window. */
constexpr size_t kLatRounds = 100;
/** Fresh Processors timed for uprog.compile_ms. */
constexpr size_t kUprogReps = 5;

DramConfig
bulkCfg()
{
    DramConfig cfg = DramConfig::forTesting(kRowBits, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

struct Inputs
{
    std::vector<uint64_t> a, b, c, x0;
};

/** The host arithmetic of one round, applied to @p x in place. */
void
hostRound(const Inputs &in, std::vector<uint64_t> &x)
{
    const uint64_t m = maskOf(kBits);
    for (size_t i = 0; i < x.size(); ++i) {
        uint64_t v = x[i];
        for (int half = 0; half < 2; ++half) {
            const uint64_t y = (((v + in.a[i]) & m) - in.b[i]) & m;
            const uint64_t t = std::max(y, in.a[i]);
            v = y > in.c[i] ? t : in.c[i];
        }
        x[i] = v;
    }
}

struct BulkRig
{
    DeviceGroup group;
    StreamExecutor ex;
    uint16_t a, b, c, x, y, t, m;
    double writeNs = 0.0; ///< The four input writeObject calls.

    BulkRig(const Inputs &in, IntegrityMode mode)
        : group(bulkCfg(), kDevices), ex(group, opts(mode)),
          a(ex.defineObject(kElems, kBits)),
          b(ex.defineObject(kElems, kBits)),
          c(ex.defineObject(kElems, kBits)),
          x(ex.defineObject(kElems, kBits)),
          y(ex.defineObject(kElems, kBits)),
          t(ex.defineObject(kElems, kBits)),
          m(ex.defineObject(kElems, 1))
    {
        const auto t0 = Clock::now();
        ex.writeObject(a, in.a);
        ex.writeObject(b, in.b);
        ex.writeObject(c, in.c);
        ex.writeObject(x, in.x0);
        writeNs = nsBetween(t0, Clock::now());
        ex.submit({BbopInstr::trsp(a, kBits), BbopInstr::trsp(b, kBits),
                   BbopInstr::trsp(c, kBits), BbopInstr::trsp(x, kBits)})
            .wait();
    }

    static StreamExecutorOptions
    opts(IntegrityMode mode)
    {
        StreamExecutorOptions o;
        o.maxQueuedStreams = 2;
        o.onFull = BackpressurePolicy::Block;
        o.integrityMode = mode;
        o.lintMode = LintMode::Warn;
        return o;
    }

    std::vector<BbopInstr>
    streamA() const
    {
        return {BbopInstr::binary(OpKind::Add, kBits, t, x, a),
                BbopInstr::binary(OpKind::Sub, kBits, y, t, b)};
    }

    std::vector<BbopInstr>
    streamB(bool last) const
    {
        std::vector<BbopInstr> s = {
            BbopInstr::binary(OpKind::Gt, kBits, m, y, c),
            BbopInstr::binary(OpKind::Max, kBits, t, y, a),
            BbopInstr::predicated(OpKind::IfElse, kBits, x, t, c, m)};
        if (last)
            s.push_back(BbopInstr::trspInv(x, kBits));
        return s;
    }
};

/** What one round returned. */
struct Round
{
    std::vector<uint64_t> x;
    std::vector<StreamResult> streams;
    double ns = 0.0;
    double readNs = 0.0; ///< The readObject of x.
};

Round
runRound(BulkRig &rig, Tracer *tracer, uint64_t id)
{
    Round r;
    const auto t0 = Clock::now();
    const int64_t span =
        tracer ? tracer->begin("bulk.round", t0, -1, id) : -1;
    std::vector<StreamHandle> hs;
    for (int i = 0; i < 4; ++i) {
        const auto s0 = Clock::now();
        hs.push_back(rig.ex.submit(i % 2 ? rig.streamB(i == 3)
                                         : rig.streamA()));
        if (tracer)
            tracer->add("runtime.submit", s0, Clock::now(), span, id);
    }
    const auto w0 = Clock::now();
    for (StreamHandle &h : hs)
        r.streams.push_back(h.waitResult());
    const auto w1 = Clock::now();
    r.x = rig.ex.readObject(rig.x);
    const auto t1 = Clock::now();
    r.ns = nsBetween(t0, t1);
    r.readNs = nsBetween(w1, t1);
    if (tracer) {
        tracer->add("runtime.device", w0, w1, span, id);
        tracer->add("runtime.readback", w1, t1, span, id);
        tracer->finish(span, t1);
    }
    return r;
}

} // namespace

Outcome
runBulkChecked(const Args &args, Tracer *tracer)
{
    Outcome o;
    o.headline = "host_mops";

    Inputs in;
    Gen g(args.seed * 0xd1342543de82ef95ULL + 5);
    for (auto *v : {&in.a, &in.b, &in.c, &in.x0}) {
        v->resize(kElems);
        for (auto &e : *v)
            e = g.next() & maskOf(kBits);
    }

    // Set-up: group, executor, objects, input transposition and one
    // warm-up round (μProgram synthesis, replay plans); repeated, the
    // last rig is kept.
    std::unique_ptr<BulkRig> rig;
    std::vector<uint64_t> expect = in.x0;
    std::vector<double> setupS, writeNs;
    for (size_t i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        rig.reset();
        rig = std::make_unique<BulkRig>(in, IntegrityMode::Checksum);
        const Round warm = runRound(*rig, nullptr, 0);
        setupS.push_back(nsBetween(t0, Clock::now()) / 1e9);
        writeNs.push_back(rig->writeNs);
        std::vector<uint64_t> x = in.x0;
        hostRound(in, x);
        o.attempted += kOpsPerRound;
        if (warm.x != x)
            o.correct = false;
        expect = std::move(x);
    }

    std::vector<DramStats> dev0;
    for (size_t d = 0; d < kDevices; ++d)
        dev0.push_back(rig->group.deviceComputeStats(d));
    std::vector<double> roundNs, readNs, modeledNs, energyPj, computeNs,
        transferNs, tras;
    // Round latency (first submit to x read back): its median and p90
    // over each window of kLatRounds rounds. A single stream is no
    // request here: the four of a round queue behind each other, so
    // stream latencies form four clusters and their median falls in
    // the gap between the second and the third.
    std::vector<double> p50, p90;
    double queueDepth = 0;
    size_t streams = 0, retries = 0, faults = 0;
    size_t instructions = 0, cached = 0, optimized = 0;
    const auto stop = Clock::now() + fromNs(args.seconds * 1e9);
    uint64_t round = 1;
    do {
        const Round r = runRound(*rig, tracer, round);
        hostRound(in, expect);
        o.attempted += kOpsPerRound;
        if (r.x != expect)
            o.correct = false;
        roundNs.push_back(r.ns);
        readNs.push_back(r.readNs);
        double c = 0, t = 0, e = 0, tr = 0;
        for (const StreamResult &s : r.streams) {
            ++streams;
            instructions += s.instructions;
            cached += s.cachedInstructions;
            optimized += s.optimizedInstructions;
            retries += s.attempts - 1;
            faults += s.faultsDetected;
            queueDepth += static_cast<double>(s.queueDepthAtSubmit);
            c += s.compute.latencyNs;
            t += s.transfer.latencyNs;
            e += s.compute.energyPj + s.transfer.energyPj;
            tr += static_cast<double>(s.compute.multiActivates);
        }
        // A stream's modeled cost is the difference of cumulative
        // device counters, so its last digits depend on the device's
        // history: only the first kModelRounds rounds, whose history
        // is the same in every run, give the modeled metrics.
        if (round <= kModelRounds) {
            modeledNs.push_back(c + t);
            computeNs.push_back(c);
            transferNs.push_back(t);
            energyPj.push_back(e);
            tras.push_back(tr);
        }
        if (round % kLatRounds == 0) {
            const std::vector<double> w(
                roundNs.end() - static_cast<std::ptrdiff_t>(kLatRounds),
                roundNs.end());
            p50.push_back(median(w));
            p90.push_back(quantile(w, 0.9));
        }
        ++round;
    } while (Clock::now() < stop || round <= kModelRounds ||
             p50.empty());
    if (retries || faults) {
        std::printf("bulk-checked: %zu retries, %zu faults detected\n",
                    retries, faults);
        o.correct = false;
    }
    if (rig->ex.lintDiagnosticCount() != 0) {
        std::printf("bulk-checked: streams did not analyze clean\n");
        o.correct = false;
    }
    double devMin = 0, devMax = 0;
    for (size_t d = 0; d < kDevices; ++d) {
        const double busy =
            diff(rig->group.deviceComputeStats(d), dev0[d]).latencyNs;
        devMin = d == 0 ? busy : std::min(devMin, busy);
        devMax = std::max(devMax, busy);
    }

    const double elemOps = static_cast<double>(kElems * kOpsPerRound);
    o.endToEnd = {
        {"setup_s", median(setupS), "s"},
        {"host_mops",
         elemOps * static_cast<double>(roundNs.size()) /
             std::accumulate(roundNs.begin(), roundNs.end(), 0.0) * 1e3,
         "Mop/s"},
        {"modeled_gops", elemOps / median(modeledNs), "Gop/s"},
        {"modeled_nj_per_op", median(energyPj) / 1e3 / elemOps, "nJ"},
        {"p50_ms", leastDisturbed(p50, false) / 1e6, "ms"},
        {"p90_ms", leastDisturbed(p90, false) / 1e6, "ms"},
    };
    o.modeled = {o.endToEnd[2], o.endToEnd[3]};

    o.perLayer = {
        {"layout.store_ns_per_elem",
         median(writeNs) / static_cast<double>(4 * kElems), "ns"},
        {"layout.load_ns_per_elem",
         median(readNs) / static_cast<double>(kElems), "ns"},
        {"runtime.queue_depth",
         queueDepth / static_cast<double>(streams), "streams"},
        {"runtime.device_balance", devMax > 0 ? devMin / devMax : 0,
         "ratio"},
        {"runtime.retries", static_cast<double>(retries), "count"},
        {"stream.optimized_instr",
         static_cast<double>(optimized) / static_cast<double>(streams),
         "count"},
        {"stream.cached_frac",
         static_cast<double>(cached) / static_cast<double>(instructions),
         "ratio"},
        {"dram.compute_ns", median(computeNs), "model_ns"},
        {"dram.transfer_ns", median(transferNs), "model_ns"},
        {"dram.energy_pj", median(energyPj), "pJ"},
        {"dram.tras", median(tras), "count"},
    };
    if (tracer) {
        const UprogCost u = probeUprog(
            bulkCfg(),
            {{OpKind::Add, kBits}, {OpKind::Sub, kBits},
             {OpKind::Gt, kBits}, {OpKind::Max, kBits},
             {OpKind::IfElse, kBits}},
            kUprogReps, tracer);
        o.perLayer.push_back({"uprog.compile_ms", u.compileMs, "ms"});
        o.perLayer.push_back(
            {"uprog.aaps", static_cast<double>(u.aaps), "count"});
        o.perLayer.push_back(
            {"uprog.aps", static_cast<double>(u.aps), "count"});
        // Integrity cost: the same rounds on a Checksum and an Off
        // executor, each at its median round time.
        std::vector<double> cost[2];
        const IntegrityMode modes[2] = {IntegrityMode::Checksum,
                                        IntegrityMode::Off};
        for (int k = 0; k < 2; ++k) {
            BulkRig r(in, modes[k]);
            for (size_t i = 0; i < kCostRounds; ++i)
                cost[k].push_back(runRound(r, nullptr, 0).ns);
        }
        o.perLayer.push_back({"runtime.integrity_cost",
                              median(cost[0]) / median(cost[1]),
                              "ratio"});
    }
    std::printf("bulk-checked: %llu rounds of %zu streams x %zu lanes\n",
                static_cast<unsigned long long>(round - 1), size_t{4},
                kElems);
    return o;
}

} // namespace simbench
