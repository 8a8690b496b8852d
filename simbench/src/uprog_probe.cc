#include "uprog_probe.h"

#include "bench.h"
#include "exec/processor.h"

namespace simbench
{

using namespace simdram;

UprogCost
probeUprog(const DramConfig &cfg,
           const std::vector<std::pair<OpKind, size_t>> &ops, size_t reps,
           Tracer *tracer)
{
    UprogCost c;
    std::vector<double> ms;
    for (size_t i = 0; i < reps; ++i) {
        Processor p(cfg);
        Tracer *t = i + 1 == reps ? tracer : nullptr;
        double ns = 0.0;
        c.aaps = c.aps = 0;
        for (const auto &[op, w] : ops) {
            const auto t0 = Clock::now();
            const MicroProgram &prog = p.program(op, w);
            const auto t1 = Clock::now();
            ns += nsBetween(t0, t1);
            if (t)
                t->add("uprog.program", t0, t1, -1,
                       static_cast<uint64_t>(op) * 100 + w);
            c.aaps += prog.aapCount();
            c.aps += prog.apCount();
        }
        ms.push_back(ns / 1e6);
    }
    c.compileMs = median(ms);
    return c;
}

} // namespace simbench
