/**
 * @file
 * The trsp/init coherence transfer function.
 *
 * Every bbop object lives in two images: the horizontal host image
 * and the vertical bit-serial image in DRAM (paper §4). A
 * CoherenceFact records what is known about how they relate, and
 * coherenceStep() is the one rule for how an instruction changes it
 * and whether the instruction is redundant — its effect already in
 * place, so running it rewrites identical data.
 *
 * Three consumers share the rule and differ only in the entry fact
 * they start each object from:
 *  - the trsp/init hoisting pass (stream/passes.h) starts every
 *    object unknown and removes the redundant nodes;
 *  - the runtime stream cache (StreamExecutor) starts from the object
 *    table, reset to unknown when an out-of-band write bumped the
 *    backing vector's mutation generation, and elides them;
 *  - the analyzer (analysis/stream_analyzer.h) starts every object
 *    unknown and reports them as RedundantTrsp/RedundantInit.
 */

#ifndef SIMDRAM_STREAM_COHERENCE_H
#define SIMDRAM_STREAM_COHERENCE_H

#include <cstdint>

#include "isa/bbop.h"

namespace simdram
{

/**
 * What is known about one object's two images. Invariant:
 * hasConst implies mirror. A default-constructed fact is "unknown".
 */
struct CoherenceFact
{
    /** The vertical image holds exactly the host image. */
    bool mirror = false;
    /** Both images hold constVal in every lane. */
    bool hasConst = false;
    /** 0 unless hasConst. */
    uint64_t constVal = 0;
};

/**
 * Applies @p in to @p f, the fact of @p in's destination object.
 * @return True iff the instruction's effect is already in place
 *         (a trsp/trsp_inv of mirrored images, or an init of the
 *         constant both images already hold); @p f is then unchanged.
 */
inline bool
coherenceStep(CoherenceFact &f, const BbopInstr &in)
{
    switch (in.opcode) {
      case BbopOpcode::Trsp:
      case BbopOpcode::TrspInv:
        if (f.mirror)
            return true;
        f = CoherenceFact{true, false, 0};
        return false;
      case BbopOpcode::Init:
        if (f.hasConst && f.constVal == in.initImmediate())
            return true;
        f = CoherenceFact{true, true, in.initImmediate()};
        return false;
      case BbopOpcode::Op:
      case BbopOpcode::ShiftL:
      case BbopOpcode::ShiftR:
        // Only the vertical image is written: the host image is stale.
        f = CoherenceFact{};
        return false;
    }
    return false;
}

} // namespace simdram

#endif // SIMDRAM_STREAM_COHERENCE_H
