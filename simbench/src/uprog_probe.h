/**
 * @file
 * The μProgram layer's figures for a workload that reaches it through
 * a StreamExecutor, whose devices synthesize programs out of sight:
 * the same op set is synthesized on fresh Processors of the
 * workload's geometry, timed around Processor::program.
 */

#ifndef SIMBENCH_UPROG_PROBE_H
#define SIMBENCH_UPROG_PROBE_H

#include <cstddef>
#include <utility>
#include <vector>

#include "dram/config.h"
#include "ops/op_kind.h"
#include "trace.h"

namespace simbench
{

/** Synthesis time and command totals of one op set. */
struct UprogCost
{
    double compileMs = 0.0; ///< Median over the repetitions.
    size_t aaps = 0;
    size_t aps = 0;
};

/**
 * Synthesizes every (op, width) of @p ops on @p reps fresh
 * Processors over @p cfg; the last repetition is traced.
 */
UprogCost
probeUprog(const simdram::DramConfig &cfg,
           const std::vector<std::pair<simdram::OpKind, size_t>> &ops,
           size_t reps, Tracer *tracer);

} // namespace simbench

#endif // SIMBENCH_UPROG_PROBE_H
