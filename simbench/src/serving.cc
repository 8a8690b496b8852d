#include "serving.h"

#include <algorithm>

namespace simbench
{

using namespace simdram;

InFlight
send(RequestCoalescer &co, uint32_t cls, const RequestPool &pool,
     Clock::time_point due, uint64_t id)
{
    InFlight f;
    f.due = due;
    f.poolIndex = id % pool.size();
    f.id = id;
    f.sent = Clock::now();
    f.future = co.submit(cls, pool.inputs[f.poolIndex]);
    return f;
}

void
PhaseStats::finish(InFlight &r, const RequestPool &pool, Tracer *tracer,
                   const char *span)
{
    ServeResult res;
    try {
        res = r.future.wait();
    } catch (const std::exception &) {
        ++failed;
        return;
    }
    ++completed;
    if (res.output != pool.expect[r.poolIndex])
        ++wrong;
    const double lateNs = nsBetween(r.due, r.sent);
    if (tracer)
        tracer->add(span, r.due, r.sent + fromNs(res.totalNs), -1,
                    r.id);
    if (!keepSamples)
        return;
    maxLateNs = std::max(maxLateNs, lateNs);
    latencyNs.push_back(lateNs + res.totalNs);
    queueNs.push_back(res.queueNs);
    executeNs.push_back(res.executeNs);
}

void
PhaseStats::merge(const PhaseStats &other)
{
    latencyNs.insert(latencyNs.end(), other.latencyNs.begin(),
                     other.latencyNs.end());
    queueNs.insert(queueNs.end(), other.queueNs.begin(),
                   other.queueNs.end());
    executeNs.insert(executeNs.end(), other.executeNs.begin(),
                     other.executeNs.end());
    completed += other.completed;
    failed += other.failed;
    wrong += other.wrong;
    maxLateNs = std::max(maxLateNs, other.maxLateNs);
}

void
BatchTotals::add(const std::vector<BatchRecord> &recs)
{
    batches += recs.size();
    for (const BatchRecord &b : recs) {
        stageNs += b.stageNs;
        submitNs += b.submitNs;
        deviceNs += b.deviceNs;
        readbackNs += b.readbackNs;
        opInstructions += b.opInstructions;
        stagedElems += b.stagedElems;
        readElems += b.readElems;
        double e = 0, c = 0, t = 0, tr = 0;
        for (const StreamResult &s : b.streams) {
            ++streams;
            queueDepth += static_cast<double>(s.queueDepthAtSubmit);
            instructions += s.instructions;
            cached += s.cachedInstructions;
            optimized += s.optimizedInstructions;
            c += s.compute.latencyNs;
            t += s.transfer.latencyNs;
            e += s.compute.energyPj + s.transfer.energyPj;
            tr += static_cast<double>(s.compute.multiActivates);
        }
        if (modeledNs.size() == kMaxSamples)
            continue;
        modeledNs.push_back(c + t);
        energyPj.push_back(e);
        computeNs.push_back(c);
        transferNs.push_back(t);
        tras.push_back(tr);
    }
}

} // namespace simbench
