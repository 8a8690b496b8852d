/**
 * @file
 * The memory-controller transposition unit (system integration,
 * paper section 4).
 *
 * SIMDRAM stores compute operands vertically while the CPU keeps its
 * horizontal layout; the transposition unit converts between the two
 * on the way in and out of the compute subarrays, so only data that
 * participates in in-DRAM computation pays the layout cost and the
 * CPU retains full-bandwidth horizontal access to everything else.
 *
 * Cost model per vertical store/load of an n-element, w-bit object:
 *  - channel transfer of n*w bits at the configured I/O energy and
 *    burst-pipelined latency;
 *  - one row activate/precharge per touched row (w rows per
 *    subarray segment) for the column accesses;
 *  - the transposition network itself is pipelined with the transfer
 *    and adds no serialized latency.
 *
 * Row reads and writes (readRows/writeRows) move the same rows over
 * the same channel and are charged exactly like a load/store of the
 * same lanes; they only skip the host-side transposition, for callers
 * (integrity snapshots and checks) that can work on vertical data.
 */

#ifndef SIMDRAM_LAYOUT_TRANSPOSITION_UNIT_H
#define SIMDRAM_LAYOUT_TRANSPOSITION_UNIT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitrow.h"
#include "common/stats.h"
#include "dram/subarray.h"

namespace simdram
{

/**
 * The bit rows of one vector, captured segment by segment by a
 * charged row read. Rows are copy-on-write aliases of the resident
 * rows, so a snapshot costs O(1) per row and later writes to the
 * device detach from it instead of changing it. Row columns at or
 * beyond a segment's lane count may hold junk (whatever bit-serial
 * execution left there) and are never read as data.
 */
struct RowSnapshot
{
    struct Segment
    {
        size_t lanes = 0;         ///< Valid lanes [0, lanes).
        std::vector<BitRow> rows; ///< Row j: bit j of every lane.
    };
    std::vector<Segment> segments;
};

/**
 * The integrity signature of a lane vector: the XOR fold of every
 * lane and the total popcount. Any corruption confined to one lane
 * flips both the fold and (except for compensating flips) the count;
 * corruptions that preserve both alias.
 */
struct LaneSignature
{
    uint64_t fold = 0;
    uint64_t pops = 0;

    bool operator==(const LaneSignature &) const = default;
};

/** @return The signature of the @p n lanes at @p lanes. */
LaneSignature laneSignature(const uint64_t *lanes, size_t n);

/**
 * @return The signature of @p s's lanes, computed on the rows: fold
 *         bit j is the parity of row j's popcount over the valid
 *         lanes of every segment, and pops is the sum of those
 *         popcounts. Equal to laneSignature() of the transposed
 *         lanes; junk beyond each segment's lanes is ignored.
 */
LaneSignature rowSignature(const RowSnapshot &s);

/**
 * Transposes @p s's valid lanes into @p out (room for every
 * segment's lanes). Host-side only: the rows were paid for when read.
 */
void snapshotToLanes(const RowSnapshot &s, uint64_t *out);

/** Converts host data to/from vertical layout with cost accounting. */
class TranspositionUnit
{
  public:
    /** @param cfg Device configuration (copied). */
    explicit TranspositionUnit(const DramConfig &cfg) : cfg_(cfg) {}

    /**
     * Stores @p n elements vertically into rows
     * [base_row, base_row + bits) of @p sub, lanes [0, n).
     */
    void storeVertical(Subarray &sub, uint32_t base_row, size_t bits,
                       const uint64_t *elems, size_t n);

    /** Loads @p n elements back from vertical layout. */
    std::vector<uint64_t> loadVertical(const Subarray &sub,
                                       uint32_t base_row, size_t bits,
                                       size_t n);

    /**
     * Charged row read: @return aliases of rows
     * [base_row, base_row + bits) of @p sub, charged exactly like
     * loadVertical() of @p n lanes.
     */
    std::vector<BitRow> readRows(const Subarray &sub, uint32_t base_row,
                                 size_t bits, size_t n);

    /**
     * Charged row write: reinstalls @p rows at [base_row, ...) of
     * @p sub, charged exactly like storeVertical() of @p n lanes.
     */
    void writeRows(Subarray &sub, uint32_t base_row,
                   const std::vector<BitRow> &rows, size_t n);

    /** @return Accumulated transfer statistics. */
    const DramStats &stats() const { return stats_; }

    /** Clears accumulated statistics. */
    void resetStats() { stats_.reset(); }

  private:
    /** Adds the cost of moving @p rows rows of @p bits_each bits. */
    void account(size_t rows, size_t bits_each);

    DramConfig cfg_;
    DramStats stats_;
};

} // namespace simdram

#endif // SIMDRAM_LAYOUT_TRANSPOSITION_UNIT_H
