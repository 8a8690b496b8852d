/**
 * @file
 * ops-sweep: one Processor per element width runs the paper's 16
 * operations at widths 8, 16 and 32 (bench_e2's grid) over 8192-lane
 * vectors that span four subarray segments on two compute banks.
 * Each (op, width) step stores the inputs, runs the op, loads the
 * output and checks every lane. No threads, no queues: μProgram
 * synthesis, replay, the DRAM model and transposition do all the
 * work, so this is where replay, kernel and μProgram changes show and
 * where runtime, serving and tenant changes must not.
 */

#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.h"
#include "exec/processor.h"
#include "host_ref.h"
#include "trace.h"

namespace simbench
{

using namespace simdram;

namespace
{

constexpr size_t kRowBits = 2048;
constexpr size_t kElems = 4 * kRowBits; // 4 segments, 2 per bank
constexpr std::array<size_t, 3> kWidths = {8, 16, 32};
/** Distinct input sets per width, cycled by round. */
constexpr size_t kInputSets = 4;
/** Fresh set-ups timed per run; setup_s is their median. */
constexpr size_t kSetups = 9;

DramConfig
sweepCfg()
{
    DramConfig cfg = DramConfig::forTesting(kRowBits, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

/** One (op, width) step and its timings. */
struct Step
{
    OpKind op = OpKind::Add;
    size_t width = 0;
    Processor::VecHandle out;
    std::vector<std::vector<uint64_t>> expect; ///< Per input set.
    std::vector<double> storeNs, runNs, loadNs;
    DramStats compute, transfer; ///< Modeled cost of one step.
};

/** One width's Processor: shared inputs, one output per op. */
struct WidthRig
{
    size_t width = 0;
    std::unique_ptr<Processor> p;
    Processor::VecHandle a, b, sel;
    std::vector<Step> steps;
    /** Input sets: a, b, sel values. */
    std::vector<std::array<std::vector<uint64_t>, 3>> inputs;
};

/**
 * Builds the three width rigs and synthesizes every μProgram;
 * @return the synthesis time in ns (program() calls only).
 */
double
buildRigs(std::vector<WidthRig> &rigs, Tracer *tracer)
{
    double compileNs = 0.0;
    rigs.clear();
    for (size_t w : kWidths) {
        WidthRig r;
        r.width = w;
        r.p = std::make_unique<Processor>(sweepCfg());
        // Inputs and every output allocated back to back: one group
        // per width, co-located in each bank's first subarray.
        r.a = r.p->alloc(kElems, w);
        r.b = r.p->alloc(kElems, w);
        r.sel = r.p->alloc(kElems, 1);
        for (OpKind op : kAllOps) {
            Step s;
            s.op = op;
            s.width = w;
            s.out = r.p->alloc(kElems, hostOutBits(op, w));
            const auto t0 = Clock::now();
            r.p->program(op, w);
            const auto t1 = Clock::now();
            compileNs += nsBetween(t0, t1);
            if (tracer)
                tracer->add("uprog.program", t0, t1, -1,
                            static_cast<uint64_t>(op) * 100 + w);
            r.steps.push_back(std::move(s));
        }
        rigs.push_back(std::move(r));
    }
    return compileNs;
}

/** Fills every rig's input sets from @p seed and the expectations. */
void
makeInputs(std::vector<WidthRig> &rigs, uint64_t seed)
{
    Gen g(seed * 0x100000001b3ULL + 17);
    for (WidthRig &r : rigs) {
        const uint64_t m = maskOf(r.width);
        r.inputs.resize(kInputSets);
        for (auto &set : r.inputs) {
            for (auto &v : set)
                v.resize(kElems);
            for (size_t i = 0; i < kElems; ++i) {
                set[0][i] = g.next() & m;
                // Small divisors (zero included) half the time, so
                // division exercises both its paths.
                set[1][i] = (i & 1) ? g.next() & m : g.below(8);
                set[2][i] = g.next() & 1;
            }
        }
        for (Step &s : r.steps) {
            s.expect.resize(kInputSets);
            for (size_t k = 0; k < kInputSets; ++k) {
                const auto &set = r.inputs[k];
                s.expect[k].resize(kElems);
                for (size_t i = 0; i < kElems; ++i)
                    s.expect[k][i] = hostOp(s.op, r.width, set[0][i],
                                            set[1][i], set[2][i] != 0);
            }
        }
    }
}

/**
 * Runs one step on input set @p k; @return true iff every lane
 * matched. @p keep records the timings (false for the warm-up).
 */
bool
runStep(WidthRig &r, Step &s, size_t k, bool keep, Tracer *tracer,
        int64_t parent, uint64_t id)
{
    Processor &p = *r.p;
    const auto &in = r.inputs[k];
    const auto t0 = Clock::now();
    p.store(r.a, in[0]);
    if (!hostUnary(s.op))
        p.store(r.b, in[1]);
    if (s.op == OpKind::IfElse)
        p.store(r.sel, in[2]);
    const auto t1 = Clock::now();
    if (hostUnary(s.op))
        p.run(s.op, s.out, r.a);
    else if (s.op == OpKind::IfElse)
        p.run(s.op, s.out, r.a, r.b, r.sel);
    else
        p.run(s.op, s.out, r.a, r.b);
    const auto t2 = Clock::now();
    const std::vector<uint64_t> got = p.load(s.out);
    const auto t3 = Clock::now();
    if (keep) {
        s.storeNs.push_back(nsBetween(t0, t1));
        s.runNs.push_back(nsBetween(t1, t2));
        s.loadNs.push_back(nsBetween(t2, t3));
    }
    if (tracer) {
        tracer->add("layout.store", t0, t1, parent, id);
        tracer->add("exec.run", t1, t2, parent, id);
        tracer->add("layout.load", t2, t3, parent, id);
    }
    return got == s.expect[k];
}

} // namespace

Outcome
runOpsSweep(const Args &args, Tracer *tracer)
{
    Outcome o;
    o.headline = "host_mops";

    // Set-up: fresh Processors and synthesis of the whole op set,
    // repeated; the last set-up is the one measured.
    std::vector<WidthRig> rigs;
    std::vector<double> setupS, compileMs;
    for (size_t i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        const double c = buildRigs(rigs, i + 1 == kSetups ? tracer
                                                           : nullptr);
        setupS.push_back(nsBetween(t0, Clock::now()) / 1e9);
        compileMs.push_back(c / 1e6);
    }
    makeInputs(rigs, args.seed);

    // Warm-up round: replay plans are built on first run. It also
    // yields the modeled cost of every step (data-independent).
    for (WidthRig &r : rigs)
        for (Step &s : r.steps) {
            r.p->resetStats();
            if (!runStep(r, s, 0, false, nullptr, -1, 0))
                o.correct = false;
            s.compute = r.p->computeStats();
            s.transfer = r.p->transferStats();
            ++o.attempted;
        }

    const auto start = Clock::now();
    const auto stop = start + fromNs(args.seconds * 1e9);
    uint64_t round = 0;
    do {
        const size_t k = round % kInputSets;
        const auto r0 = Clock::now();
        const int64_t span =
            tracer ? tracer->begin("ops.round", r0, -1, round) : -1;
        for (WidthRig &r : rigs)
            for (Step &s : r.steps) {
                if (!runStep(r, s, k, true, tracer, span, round))
                    o.correct = false;
                ++o.attempted;
            }
        if (tracer)
            tracer->finish(span, Clock::now());
        ++round;
    } while (Clock::now() < stop);

    // host_mops: each step at its least-disturbed repetition, summed
    // (a shared host's stalls land on a few repetitions, not all).
    // p50_ms / p90_ms: over the 48 steps, each step's latency (store,
    // run, load of one op) at its least-disturbed repetition.
    std::vector<double> stepNs;
    double bestNs = 0.0, storeNs = 0.0, runNs = 0.0, loadNs = 0.0;
    double storedElems = 0.0;
    DramStats compute, transfer;
    size_t aaps = 0, aps = 0;
    const double steps = static_cast<double>(kWidths.size() *
                                             kAllOps.size());
    for (WidthRig &r : rigs)
        for (Step &s : r.steps) {
            std::vector<double> tot(s.runNs.size());
            for (size_t i = 0; i < tot.size(); ++i)
                tot[i] = s.storeNs[i] + s.runNs[i] + s.loadNs[i];
            stepNs.push_back(quantile(tot, 0.0));
            bestNs += stepNs.back();
            storeNs += median(s.storeNs);
            runNs += median(s.runNs);
            loadNs += median(s.loadNs);
            storedElems +=
                static_cast<double>(kElems) *
                (hostUnary(s.op) ? 1 : s.op == OpKind::IfElse ? 3 : 2);
            compute += s.compute;
            transfer += s.transfer;
            const MicroProgram &prog = r.p->program(s.op, s.width);
            aaps += prog.aapCount();
            aps += prog.apCount();
        }
    const double elemOps = steps * static_cast<double>(kElems);
    const double modeledNs = compute.latencyNs + transfer.latencyNs;
    const double energyPj = compute.energyPj + transfer.energyPj;

    o.endToEnd = {
        {"setup_s", median(setupS), "s"},
        {"host_mops", elemOps / bestNs * 1e3, "Mop/s"},
        {"modeled_gops", elemOps / modeledNs, "Gop/s"},
        {"modeled_nj_per_op", energyPj / 1e3 / elemOps, "nJ"},
        {"p50_ms", median(stepNs) / 1e6, "ms"},
        {"p90_ms", quantile(stepNs, 0.9) / 1e6, "ms"},
    };
    o.modeled = {o.endToEnd[2], o.endToEnd[3]};
    o.perLayer = {
        {"uprog.compile_ms", median(compileMs), "ms"},
        {"uprog.aaps", static_cast<double>(aaps), "count"},
        {"uprog.aps", static_cast<double>(aps), "count"},
        {"exec.run_ns_per_elem", runNs / elemOps, "ns"},
        {"layout.store_ns_per_elem", storeNs / storedElems, "ns"},
        {"layout.load_ns_per_elem", loadNs / elemOps, "ns"},
        {"dram.compute_ns", compute.latencyNs, "model_ns"},
        {"dram.transfer_ns", transfer.latencyNs, "model_ns"},
        {"dram.energy_pj", energyPj, "pJ"},
        {"dram.tras", static_cast<double>(compute.multiActivates),
         "count"},
    };
    std::printf("ops-sweep: %llu rounds of %zu steps x %zu lanes\n",
                static_cast<unsigned long long>(round),
                static_cast<size_t>(steps), kElems);
    return o;
}

} // namespace simbench
