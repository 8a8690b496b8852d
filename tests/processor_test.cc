/**
 * @file
 * End-to-end tests of the Processor public API: allocation, layout
 * conversion, execution of every operation on every backend, bank
 * parallelism, and misuse diagnostics.
 */

#include <gtest/gtest.h>

#include "baseline/host_kernels.h"
#include "common/error.h"
#include "common/rng.h"
#include "exec/processor.h"

namespace simdram
{
namespace
{

DramConfig
testCfg()
{
    return DramConfig::forTesting(256, 512);
}

TEST(Processor, StoreLoadRoundTrip)
{
    Processor p(testCfg());
    const auto v = p.alloc(300, 16); // spans 2 segments of 256 lanes
    Rng rng(1);
    std::vector<uint64_t> data(300);
    for (auto &x : data)
        x = rng.next() & 0xffff;
    p.store(v, data);
    EXPECT_EQ(p.load(v), data);
    EXPECT_GT(p.transferStats().energyPj, 0.0);
}

TEST(Processor, AllocRejectsEmpty)
{
    Processor p(testCfg());
    EXPECT_THROW(p.alloc(0, 8), FatalError);
    EXPECT_THROW(p.alloc(8, 0), FatalError);
}

TEST(Processor, StoreRejectsWrongSize)
{
    Processor p(testCfg());
    const auto v = p.alloc(10, 8);
    EXPECT_THROW(p.store(v, std::vector<uint64_t>(11, 0)),
                 FatalError);
}

TEST(Processor, InvalidHandleRejected)
{
    Processor p(testCfg());
    Processor::VecHandle bogus;
    EXPECT_THROW(p.load(bogus), FatalError);
}

TEST(Processor, WidthMismatchRejected)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto b = p.alloc(10, 16);
    const auto y = p.alloc(10, 8);
    EXPECT_THROW(p.run(OpKind::Add, y, a, b), FatalError);
}

TEST(Processor, DestinationWidthChecked)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto b = p.alloc(10, 8);
    const auto y = p.alloc(10, 4); // eq needs 1-bit dst
    EXPECT_THROW(p.run(OpKind::Eq, y, a, b), FatalError);
}

TEST(Processor, ArityChecked)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto y = p.alloc(10, 8);
    EXPECT_THROW(p.run(OpKind::Add, y, a), FatalError);
    EXPECT_THROW(p.run(OpKind::Relu, y, a, a), FatalError);
}

TEST(Processor, InPlaceExecutionRejected)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 8);
    const auto b = p.alloc(10, 8);
    p.store(a, std::vector<uint64_t>(10, 1));
    p.store(b, std::vector<uint64_t>(10, 2));
    EXPECT_THROW(p.run(OpKind::Add, a, a, b), FatalError);
}

TEST(Processor, MultiSegmentComputation)
{
    // 600 elements over 256-lane subarrays: 3 segments, 1 bank.
    Processor p(testCfg());
    const size_t n = 600;
    const auto a = p.alloc(n, 8);
    const auto b = p.alloc(n, 8);
    const auto y = p.alloc(n, 8);
    Rng rng(2);
    std::vector<uint64_t> da(n), db(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & 0xff;
        db[i] = rng.next() & 0xff;
    }
    p.store(a, da);
    p.store(b, db);
    p.run(OpKind::Add, y, a, b);
    const auto got = p.load(y);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], (da[i] + db[i]) & 0xff) << i;
}

TEST(Processor, BankParallelismReducesLatency)
{
    DramConfig cfg1 = testCfg();
    cfg1.computeBanks = 1;
    DramConfig cfg2 = testCfg();
    cfg2.computeBanks = 2;

    const size_t n = 512; // two segments
    std::vector<uint64_t> da(n, 3), db(n, 4);

    Processor p1(cfg1), p2(cfg2);
    for (Processor *p : {&p1, &p2}) {
        const auto a = p->alloc(n, 8);
        const auto b = p->alloc(n, 8);
        const auto y = p->alloc(n, 8);
        p->store(a, da);
        p->store(b, db);
        p->run(OpKind::Add, y, a, b);
        EXPECT_EQ(p->load(y), std::vector<uint64_t>(n, 7));
    }
    const auto s1 = p1.computeStats();
    const auto s2 = p2.computeStats();
    EXPECT_EQ(s1.aaps, s2.aaps) << "same total work";
    EXPECT_DOUBLE_EQ(s2.latencyNs, s1.latencyNs / 2)
        << "two banks halve the serialized latency";
}

TEST(Processor, StatsResetWorks)
{
    Processor p(testCfg());
    const auto a = p.alloc(10, 4);
    const auto y = p.alloc(10, 4);
    p.store(a, std::vector<uint64_t>(10, 5));
    p.run(OpKind::Relu, y, a);
    EXPECT_GT(p.computeStats().aaps, 0u);
    p.resetStats();
    EXPECT_EQ(p.computeStats().aaps, 0u);
    EXPECT_DOUBLE_EQ(p.transferStats().energyPj, 0.0);
}

TEST(Processor, ProgramCacheIsPerWidth)
{
    Processor p(testCfg());
    const auto &p8 = p.program(OpKind::Add, 8);
    const auto &p16 = p.program(OpKind::Add, 16);
    EXPECT_NE(&p8, &p16);
    EXPECT_EQ(&p8, &p.program(OpKind::Add, 8));
    EXPECT_GT(p16.ops.size(), p8.ops.size());
}

TEST(Processor, SixtyFourBitOperations)
{
    // 64-bit vectors stress the row allocator (3 x 64 rows + deep
    // scratch) and the full carry chain.
    DramConfig cfg = DramConfig::forTesting(256, 768);
    Rng rng(0x64);
    const size_t n = 300;
    std::vector<uint64_t> da(n), db(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next();
        db[i] = rng.next();
    }
    for (OpKind op : {OpKind::Add, OpKind::Sub, OpKind::Gt,
                      OpKind::BitXor}) {
        Processor p(cfg);
        const auto sig = signatureOf(op, 64);
        const auto a = p.alloc(n, 64);
        const auto b = p.alloc(n, 64);
        const auto y = p.alloc(n, sig.outWidth);
        p.store(a, da);
        p.store(b, db);
        p.run(op, y, a, b);
        const auto got = p.load(y);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], referenceOp(op, 64, da[i], db[i]))
                << toString(op) << " lane " << i;
    }
}

TEST(Processor, BackendNames)
{
    EXPECT_STREQ(toString(Backend::Simdram), "SIMDRAM");
    EXPECT_STREQ(toString(Backend::SimdramNaive), "SIMDRAM-naive");
    EXPECT_STREQ(toString(Backend::Ambit), "Ambit");
}

/** Every op x width x backend, end to end vs the host kernels. */
class ProcessorOpTest
    : public ::testing::TestWithParam<
          std::tuple<OpKind, size_t, Backend>>
{
};

TEST_P(ProcessorOpTest, MatchesHostKernels)
{
    const auto [op, width, backend] = GetParam();
    Processor p(testCfg(), backend);
    const auto sig = signatureOf(op, width);
    const size_t n = 300; // crosses a segment boundary
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);

    Rng rng(0x9e3 + width);
    std::vector<uint64_t> da(n), db(n), ds(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & mask;
        db[i] = rng.next() & mask;
        ds[i] = rng.next() & 1;
    }

    const auto a = p.alloc(n, width);
    const auto b = p.alloc(n, width);
    const auto sel = p.alloc(n, 1);
    const auto y = p.alloc(n, sig.outWidth);
    p.store(a, da);
    if (sig.numInputs == 2)
        p.store(b, db);
    if (sig.hasSel)
        p.store(sel, ds);

    if (sig.numInputs == 1)
        p.run(op, y, a);
    else if (!sig.hasSel)
        p.run(op, y, a, b);
    else
        p.run(op, y, a, b, sel);

    const auto got = p.load(y);
    const auto expect = hostBulkOp(op, width, da,
                                   sig.numInputs == 2
                                       ? db
                                       : std::vector<uint64_t>(),
                                   sig.hasSel
                                       ? ds
                                       : std::vector<uint64_t>());
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(got[i], expect[i])
            << toString(op) << " w=" << width << " lane " << i
            << " backend=" << toString(backend);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ProcessorOpTest,
    ::testing::Combine(::testing::ValuesIn(kAllOps),
                       ::testing::Values(size_t{8}, size_t{16}),
                       ::testing::Values(Backend::Simdram,
                                         Backend::Ambit)),
    [](const auto &info) {
        return toString(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param)) + "_" +
               (std::get<2>(info.param) == Backend::Simdram
                    ? "simdram"
                    : "ambit");
    });

/** Compares the full DRAM state of two processors' devices. */
void
expectSameDeviceState(Processor &a, Processor &b)
{
    DramDevice &da = a.device();
    DramDevice &db = b.device();
    ASSERT_EQ(da.bankCount(), db.bankCount());
    for (size_t bank = 0; bank < da.bankCount(); ++bank) {
        Bank &ba = da.bank(bank);
        Bank &bb = db.bank(bank);
        ASSERT_EQ(ba.subarrayCount(), bb.subarrayCount());
        for (size_t s = 0; s < ba.subarrayCount(); ++s) {
            ASSERT_EQ(ba.materialized(s), bb.materialized(s))
                << "bank " << bank << " sub " << s;
            if (!ba.materialized(s))
                continue;
            Subarray &sa = ba.subarray(s);
            Subarray &sb = bb.subarray(s);
            for (size_t row = 0; row < sa.dataRowCount(); ++row)
                ASSERT_EQ(sa.peekData(row), sb.peekData(row))
                    << "bank " << bank << " sub " << s << " row "
                    << row;
            for (SpecialRow sr :
                 {SpecialRow::T0, SpecialRow::T1, SpecialRow::T2,
                  SpecialRow::T3, SpecialRow::DCC0P,
                  SpecialRow::DCC1P})
                ASSERT_EQ(sa.peek(sr), sb.peek(sr))
                    << "bank " << bank << " sub " << s << " "
                    << toString(sr);
        }
    }
}

/** Compares DramStats: counters exactly, doubles to the last ulps. */
void
expectSameStats(const DramStats &a, const DramStats &b)
{
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.multiActivates, b.multiActivates);
    EXPECT_EQ(a.precharges, b.precharges);
    EXPECT_EQ(a.aaps, b.aaps);
    EXPECT_EQ(a.aps, b.aps);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    // The batched plan adds one precomputed aggregate per segment
    // where the reference path accumulates per command; the sums can
    // differ in the last ulps.
    EXPECT_DOUBLE_EQ(a.latencyNs, b.latencyNs);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

/**
 * Replay equivalence: for each OpKind x backend x width, the batched
 * ReplayPlan path must produce the same memory state and the same
 * DramStats as the seed per-segment ControlUnit path.
 */
class ReplayEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<OpKind, size_t, Backend>>
{
};

TEST_P(ReplayEquivalenceTest, BatchedMatchesReference)
{
    const auto [op, width, backend] = GetParam();
    Processor pref(testCfg(), backend);
    Processor pbat(testCfg(), backend);
    pref.setReplayMode(ReplayMode::Reference);
    pbat.setReplayMode(ReplayMode::Batched);

    const auto sig = signatureOf(op, width);
    const size_t n = 300; // crosses a segment boundary
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    Rng rng(0x5eed + width);
    std::vector<uint64_t> da(n), db(n), ds(n);
    for (size_t i = 0; i < n; ++i) {
        da[i] = rng.next() & mask;
        db[i] = rng.next() & mask;
        ds[i] = rng.next() & 1;
    }

    auto runOn = [&](Processor &p) {
        const auto a = p.alloc(n, width);
        const auto b = p.alloc(n, width);
        const auto sel = p.alloc(n, 1);
        const auto y = p.alloc(n, sig.outWidth);
        p.store(a, da);
        if (sig.numInputs == 2)
            p.store(b, db);
        if (sig.hasSel)
            p.store(sel, ds);
        if (sig.numInputs == 1)
            p.run(op, y, a);
        else if (!sig.hasSel)
            p.run(op, y, a, b);
        else
            p.run(op, y, a, b, sel);
        return p.load(y);
    };

    const auto out_ref = runOn(pref);
    const auto out_bat = runOn(pbat);
    EXPECT_EQ(out_bat, out_ref);
    expectSameDeviceState(pbat, pref);
    expectSameStats(pbat.computeStats(), pref.computeStats());
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, ReplayEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kAllOps),
                       ::testing::Values(size_t{8}, size_t{16}),
                       ::testing::Values(Backend::Simdram,
                                         Backend::SimdramNaive,
                                         Backend::Ambit)),
    [](const auto &info) {
        const Backend b = std::get<2>(info.param);
        return toString(std::get<0>(info.param)) + "_w" +
               std::to_string(std::get<1>(info.param)) + "_" +
               (b == Backend::Simdram
                    ? "simdram"
                    : (b == Backend::SimdramNaive ? "naive"
                                                  : "ambit"));
    });

// ---------------------------------------------------------------
// free(): segment recycling and misuse diagnostics
// ---------------------------------------------------------------

TEST(Processor, FreeRecyclesSegmentsForSameShape)
{
    Processor p(testCfg());
    // Exhaust the data rows with same-shape vectors...
    std::vector<Processor::VecHandle> held;
    for (;;) {
        try {
            held.push_back(p.alloc(256, 16));
        } catch (const FatalError &) {
            break;
        }
    }
    ASSERT_GT(held.size(), 2u);
    // ... so only recycling can satisfy further allocations: the
    // bump pointer itself is spent.
    EXPECT_THROW(p.alloc(256, 16), FatalError);
    p.free(held.back());
    held.pop_back();
    const auto again = p.alloc(256, 16);
    // The recycled vector is fully usable.
    std::vector<uint64_t> data(256, 0x1234);
    p.store(again, data);
    EXPECT_EQ(p.load(again), data);
    // A free of shape A does not satisfy shape B (exact row-count
    // match keeps the co-location guarantee).
    p.free(held.back());
    held.pop_back();
    EXPECT_THROW(p.alloc(256, 32), FatalError);
    EXPECT_NO_THROW(p.alloc(256, 16));
}

TEST(Processor, FreedHandleIsPoison)
{
    Processor p(testCfg());
    const auto v = p.alloc(64, 8);
    const auto w = p.alloc(64, 8);
    p.free(v);
    EXPECT_THROW(p.load(v), FatalError);
    EXPECT_THROW(p.store(v, std::vector<uint64_t>(64, 0)),
                 FatalError);
    EXPECT_THROW(p.run(OpKind::Add, w, v, v), FatalError);
    EXPECT_THROW(p.free(v), FatalError); // double free
    // The untouched handle keeps working.
    std::vector<uint64_t> data(64, 9);
    p.store(w, data);
    EXPECT_EQ(p.load(w), data);
}

// ---------------------------------------------------------------
// Charged row snapshots and the row-domain signature
// ---------------------------------------------------------------

/** @return @p n random lanes of @p bits bits each. */
std::vector<uint64_t>
randomLanes(size_t n, size_t bits, uint64_t seed)
{
    const uint64_t mask = bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
    Rng rng(seed);
    std::vector<uint64_t> v(n);
    for (auto &x : v)
        x = rng.next() & mask;
    return v;
}

void
expectSameCharge(const DramStats &a, const DramStats &b)
{
    EXPECT_EQ(a.activates, b.activates);
    EXPECT_EQ(a.precharges, b.precharges);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.latencyNs, b.latencyNs);
    EXPECT_EQ(a.energyPj, b.energyPj);
}

/** Sets every row column at or beyond each segment's lane count. */
RowSnapshot
withJunk(RowSnapshot s)
{
    for (RowSnapshot::Segment &seg : s.segments)
        for (BitRow &row : seg.rows)
            for (size_t i = seg.lanes; i < row.width(); ++i)
                row.set(i, true);
    return s;
}

// Lane counts over 256-lane segments: one partial segment, a full
// segment plus 44 lanes, and two full segments plus one lane.
constexpr size_t kSnapshotWidths[] = {1, 8, 16, 33, 64};
constexpr size_t kSnapshotLanes[] = {100, 300, 513};

TEST(RowSnapshot, SignatureMatchesLoadedLanes)
{
    for (size_t bits : kSnapshotWidths) {
        for (size_t n : kSnapshotLanes) {
            SCOPED_TRACE(std::to_string(bits) + " bits x " +
                         std::to_string(n) + " lanes");
            Processor p(testCfg());
            const auto v = p.alloc(n, bits);
            p.store(v, randomLanes(n, bits, bits * 1000 + n));
            const auto lanes = p.load(v);
            const RowSnapshot s = p.snapshotRows(v);
            size_t lanesSeen = 0;
            for (const RowSnapshot::Segment &seg : s.segments)
                lanesSeen += seg.lanes;
            ASSERT_EQ(lanesSeen, n);
            EXPECT_EQ(s.segments.size(), (n + 255) / 256);
            EXPECT_EQ(rowSignature(s), laneSignature(lanes.data(), n));
            std::vector<uint64_t> back(n);
            snapshotToLanes(s, back.data());
            EXPECT_EQ(back, lanes);
        }
    }
}

TEST(RowSnapshot, JunkBeyondSegmentLanesIsIgnored)
{
    for (size_t bits : kSnapshotWidths) {
        for (size_t n : kSnapshotLanes) {
            SCOPED_TRACE(std::to_string(bits) + " bits x " +
                         std::to_string(n) + " lanes");
            Processor p(testCfg());
            const auto v = p.alloc(n, bits);
            p.store(v, randomLanes(n, bits, bits * 7 + n));
            const auto lanes = p.load(v);
            const RowSnapshot junk = withJunk(p.snapshotRows(v));
            EXPECT_EQ(rowSignature(junk),
                      laneSignature(lanes.data(), n));
            // The junk columns are no data: restoring them leaves
            // every lane as it was.
            p.restoreRows(v, junk);
            EXPECT_EQ(p.load(v), lanes);
        }
    }
}

TEST(RowSnapshot, JunkLeftByExecutionIsIgnored)
{
    // Stores zero the columns beyond the last segment's lanes, and
    // Eq of two zero columns is 1: the 1-bit result carries junk
    // there that a load never sees.
    for (size_t bits : {size_t{8}, size_t{33}}) {
        Processor p(testCfg());
        const size_t n = 300;
        const auto a = p.alloc(n, bits);
        const auto b = p.alloc(n, bits);
        const auto y = p.alloc(n, 1);
        p.store(a, randomLanes(n, bits, 3));
        auto db = randomLanes(n, bits, 4);
        db[7] = p.load(a)[7]; // at least one equal lane
        p.store(b, db);
        p.run(OpKind::Eq, y, a, b);
        const RowSnapshot s = p.snapshotRows(y);
        const RowSnapshot::Segment &last = s.segments.back();
        ASSERT_LT(last.lanes, last.rows[0].width());
        ASSERT_TRUE(last.rows[0].get(last.lanes)) << "no junk to ignore";
        const auto lanes = p.load(y);
        EXPECT_EQ(rowSignature(s), laneSignature(lanes.data(), n));
    }
}

TEST(RowSnapshot, ChargedExactlyLikeLoadAndStore)
{
    const size_t n = 513;
    const size_t bits = 16;
    const auto data = randomLanes(n, bits, 11);
    Processor byLanes(testCfg());
    Processor byRows(testCfg());
    const auto v1 = byLanes.alloc(n, bits);
    const auto v2 = byRows.alloc(n, bits);
    byLanes.store(v1, data);
    byRows.store(v2, data);

    std::vector<uint64_t> loaded(n);
    byLanes.loadInto(v1, loaded.data());
    const RowSnapshot snap = byRows.snapshotRows(v2);
    expectSameCharge(byLanes.transferStats(), byRows.transferStats());

    // The snapshot is a copy-on-write alias: overwriting the device
    // rows leaves it intact, and restoring it is charged as a store.
    byRows.store(v2, randomLanes(n, bits, 12));
    byLanes.store(v1, randomLanes(n, bits, 12));
    byLanes.store(v1, loaded);
    byRows.restoreRows(v2, snap);
    expectSameCharge(byLanes.transferStats(), byRows.transferStats());
    EXPECT_EQ(byRows.load(v2), data);
}

TEST(RowSnapshot, RestoreRejectsForeignShape)
{
    Processor p(testCfg());
    const auto a = p.alloc(300, 8);
    const auto b = p.alloc(300, 16);
    const auto c = p.alloc(100, 8);
    EXPECT_THROW(p.restoreRows(b, p.snapshotRows(a)), FatalError);
    EXPECT_THROW(p.restoreRows(c, p.snapshotRows(a)), FatalError);
}

} // namespace
} // namespace simdram
