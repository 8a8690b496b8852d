#include "layout/transposition_unit.h"

#include <algorithm>

#include "common/error.h"
#include "layout/transpose.h"

namespace simdram
{

namespace
{

/**
 * Shift-add popcount. Without a POPCNT target (the portable build)
 * std::popcount is one libgcc call per word, which dominated the
 * signature passes; this form inlines and vectorizes.
 */
uint64_t
popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    x += x >> 8;
    x += x >> 16;
    x += x >> 32;
    return x & 0x7f;
}

} // namespace

LaneSignature
laneSignature(const uint64_t *lanes, size_t n)
{
    LaneSignature s;
    for (size_t i = 0; i < n; ++i) {
        s.fold ^= lanes[i];
        s.pops += popcount64(lanes[i]);
    }
    return s;
}

LaneSignature
rowSignature(const RowSnapshot &s)
{
    LaneSignature sig;
    for (const RowSnapshot::Segment &seg : s.segments) {
        const size_t full = seg.lanes / 64;
        const size_t rem = seg.lanes % 64;
        // Rows past 64 read as zero through a load; skip them too.
        const size_t bits = std::min<size_t>(seg.rows.size(), 64);
        for (size_t j = 0; j < bits; ++j) {
            const BitRow &row = seg.rows[j];
            uint64_t pops = 0;
            for (size_t w = 0; w < full; ++w)
                pops += popcount64(row.word(w));
            if (rem != 0)
                pops += popcount64(row.word(full) &
                                   ((1ULL << rem) - 1));
            // Bit j of the lane fold is the parity of row j's count.
            sig.fold ^= (pops & 1) << j;
            sig.pops += pops;
        }
    }
    return sig;
}

void
snapshotToLanes(const RowSnapshot &s, uint64_t *out)
{
    std::vector<const BitRow *> rows;
    for (const RowSnapshot::Segment &seg : s.segments) {
        rows.clear();
        for (const BitRow &r : seg.rows)
            rows.push_back(&r);
        rowsToElementsInto(rows.data(), rows.size(), out, seg.lanes);
        out += seg.lanes;
    }
}

void
TranspositionUnit::storeVertical(Subarray &sub, uint32_t base_row,
                                 size_t bits, const uint64_t *elems,
                                 size_t n)
{
    if (n > sub.rowBits())
        fatal("storeVertical: element count exceeds lanes");
    // Transpose straight into the resident rows; the Into kernel
    // overwrites every word (lanes beyond n become zero), exactly as
    // poking freshly transposed rows did.
    std::vector<BitRow *> rows(bits);
    for (size_t j = 0; j < bits; ++j)
        rows[j] = &sub.pokeDataRow(base_row + j);
    elementsToRowsInto(elems, n, bits, rows.data());
    account(bits, n);
}

std::vector<uint64_t>
TranspositionUnit::loadVertical(const Subarray &sub, uint32_t base_row,
                                size_t bits, size_t n)
{
    std::vector<const BitRow *> rows(bits);
    for (size_t j = 0; j < bits; ++j)
        rows[j] = &sub.peekData(base_row + j);
    account(bits, n);
    std::vector<uint64_t> elems(n, 0);
    rowsToElementsInto(rows.data(), bits, elems.data(), n);
    return elems;
}

std::vector<BitRow>
TranspositionUnit::readRows(const Subarray &sub, uint32_t base_row,
                            size_t bits, size_t n)
{
    std::vector<BitRow> rows;
    rows.reserve(bits);
    for (size_t j = 0; j < bits; ++j)
        rows.push_back(sub.peekData(base_row + j));
    account(bits, n);
    return rows;
}

void
TranspositionUnit::writeRows(Subarray &sub, uint32_t base_row,
                             const std::vector<BitRow> &rows, size_t n)
{
    if (n > sub.rowBits())
        fatal("writeRows: element count exceeds lanes");
    for (size_t j = 0; j < rows.size(); ++j)
        sub.pokeData(base_row + j, rows[j]);
    account(rows.size(), n);
}

void
TranspositionUnit::account(size_t rows, size_t bits_each)
{
    const DramTiming &t = cfg_.timing;
    // One ACT + column bursts + PRE per row; bursts carry 512 bits.
    const size_t bursts_per_row = (bits_each + 511) / 512;
    stats_.latencyNs +=
        static_cast<double>(rows) *
        (t.tRcd + static_cast<double>(bursts_per_row) * t.tBurst +
         t.tRp);
    stats_.activates += rows;
    stats_.precharges += rows;
    stats_.writes += rows * bursts_per_row;
    stats_.energyPj +=
        static_cast<double>(rows) *
        (cfg_.actEnergyPj(1) + cfg_.preEnergyPj());
    stats_.energyPj += static_cast<double>(rows) *
                       static_cast<double>(bits_each) *
                       cfg_.energy.eIoPjPerBit;
}

} // namespace simdram
