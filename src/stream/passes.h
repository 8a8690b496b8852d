/**
 * @file
 * The stream optimizer passes.
 *
 * Three passes run over a StreamIR between StreamExecutor::submit()
 * and dispatch, in a fixed order:
 *
 *   1. trsp/init hoisting — a forward scan that removes transpose
 *      and constant-fill instructions whose effect is already in
 *      place, by coherenceStep (stream/coherence.h) from an
 *      all-unknown entry state; the runtime stream cache applies the
 *      same function across submissions;
 *   2. dead-write elimination — a backward scan over the
 *      effectsOf() read/write sets that removes instructions whose
 *      every written location is overwritten before any read;
 *   3. fusion — adjacent segments that share an operand object are
 *      merged into one device pass, eliding the per-stream
 *      queue/dispatch round trip between them.
 *
 * Every write in the bbop ISA is a FULL write of its location, and
 * the validator lets full vertical writes establish the vertical
 * layout (isa/validate.h), so removing a trsp whose image is
 * overwritten before any read keeps the program valid and the final
 * layout state identical — which is what lets the executor validate
 * the ORIGINAL program and commit that layout (see
 * StreamExecutor::submit).
 *
 * Each pass is individually toggleable (StreamExecutorOptions maps
 * onto PassOptions); runPasses reports per-pass counts in PassStats.
 */

#ifndef SIMDRAM_STREAM_PASSES_H
#define SIMDRAM_STREAM_PASSES_H

#include <cstddef>

#include "stream/stream_ir.h"

namespace simdram
{

/** Which passes to run; all on by default. */
struct PassOptions
{
    bool trspHoist = true;
    bool deadWriteElim = true;
    bool fusion = true;
};

/** What the passes did to one program. */
struct PassStats
{
    size_t hoisted = 0;         ///< Nodes removed by hoisting.
    size_t deadEliminated = 0;  ///< Nodes removed by DWE.
    size_t fusedSegments = 0;   ///< Segments merged away by fusion.

    /** @return Total instructions removed by the scalar passes. */
    size_t removed() const { return hoisted + deadEliminated; }
};

/**
 * Runs the enabled passes over @p ir in place (order: hoist, DWE,
 * fusion) and returns what they did. The IR must be a VALIDATED
 * program: the passes assume every instruction obeys the bbop rules.
 */
PassStats runPasses(StreamIR &ir, const PassOptions &opts);

} // namespace simdram

#endif // SIMDRAM_STREAM_PASSES_H
