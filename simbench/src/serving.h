/**
 * @file
 * Helpers shared by the two serving workloads (serve-knn,
 * tenant-mix): a seeded pool of pre-built requests with their
 * host-computed answers, per-request bookkeeping timed from the due
 * time, and the batch-record roll-ups behind the per-layer metrics.
 */

#ifndef SIMBENCH_SERVING_H
#define SIMBENCH_SERVING_H

#include <cstdint>
#include <vector>

#include "bench.h"
#include "serve/request_coalescer.h"
#include "timed_service.h"
#include "trace.h"

namespace simbench
{

/** Request inputs (per class slot) and the expected output. */
struct RequestPool
{
    std::vector<std::vector<std::vector<uint64_t>>> inputs;
    std::vector<std::vector<uint64_t>> expect;

    size_t size() const { return inputs.size(); }
};

/** One request in flight. */
struct InFlight
{
    simdram::ServeFuture future;
    Clock::time_point due;  ///< When the schedule said to send it.
    Clock::time_point sent; ///< When submit() was called.
    size_t poolIndex = 0;
    uint64_t id = 0;
};

/**
 * Submits pool request @p id (cycling through the pool) to class
 * @p cls of @p co, recording when it was due and when it was sent.
 */
InFlight send(simdram::RequestCoalescer &co, uint32_t cls,
              const RequestPool &pool, Clock::time_point due,
              uint64_t id);

/** What the requests of one phase saw. */
struct PhaseStats
{
    std::vector<double> latencyNs; ///< From due time to completion.
    std::vector<double> queueNs;   ///< ServeResult::queueNs.
    std::vector<double> executeNs; ///< ServeResult::executeNs.
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0;
    double maxLateNs = 0.0; ///< Worst generator lag behind schedule.
    /**
     * False for closed-loop traffic, whose request count follows the
     * host's speed: only counts are kept, so memory does not.
     */
    bool keepSamples = true;

    /**
     * Waits for @p r, checks its output against @p pool and records
     * its timings; a request that throws counts as failed.
     */
    void finish(InFlight &r, const RequestPool &pool, Tracer *tracer,
                const char *span);

    /** Appends @p other's requests to this phase's. */
    void merge(const PhaseStats &other);
};

/** Sums over the batch records of one phase. */
struct BatchTotals
{
    size_t batches = 0;
    size_t streams = 0;
    double stageNs = 0, submitNs = 0, deviceNs = 0, readbackNs = 0;
    double queueDepth = 0; ///< Summed over streams.
    size_t instructions = 0, cached = 0, optimized = 0;
    size_t opInstructions = 0;
    size_t stagedElems = 0, readElems = 0;
    /**
     * Per-batch modeled cost (compute + transfer over streams) of the
     * first kMaxSamples batches: enough for a median, and memory does
     * not grow with the host's speed.
     */
    static constexpr size_t kMaxSamples = 2048;
    std::vector<double> modeledNs, energyPj, computeNs, transferNs,
        tras;

    /** Folds @p recs into the totals. */
    void add(const std::vector<BatchRecord> &recs);

    double perBatchUs(double ns) const
    {
        return batches ? ns / static_cast<double>(batches) / 1e3 : 0;
    }

    double meanQueueDepth() const
    {
        return streams ? queueDepth / static_cast<double>(streams) : 0;
    }
};

} // namespace simbench

#endif // SIMBENCH_SERVING_H
