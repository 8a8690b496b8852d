/**
 * @file
 * Tests for the StreamIR static analyzer (src/analysis): every lint
 * rule on a seeded-defect corpus (positive AND negative per rule),
 * the analyzer-vs-validator differential over the shared malformed
 * corpus (the analyzer may only ever be stricter, never looser), the
 * submit-time wiring (Strict rejection semantics, Warn accumulation
 * and drain, lint-over-the-optimized-program), translation validation
 * of the optimizer passes over randomized programs in every pass
 * combination, and Warn-mode cleanliness of the request coalescer's
 * fused batch programs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/stream_analyzer.h"
#include "common/rng.h"
#include "malformed_corpus.h"
#include "runtime/stream_executor.h"
#include "serve/request_coalescer.h"
#include "serve/workloads.h"
#include "stream/passes.h"
#include "stream/stream_ir.h"
#include "stream_testutil.h"

namespace simdram
{
namespace
{

using testutil::noPassesOpts;
using testutil::randomData;
using testutil::testCfg;

/** Four same-shaped 8-bit objects: a, b, y, z. */
BbopObjectTable
smallTable()
{
    BbopObjectTable t;
    for (int i = 0; i < 4; ++i)
        t.define(16, 8);
    return t;
}

constexpr uint16_t kA = 0, kB = 1, kY = 2, kZ = 3;

AnalysisResult
analyze(const std::vector<BbopInstr> &stream,
        const BbopObjectView &view,
        EntryAssumption entry = EntryAssumption::FromView)
{
    return analyzeStream(StreamIR::lift(stream), view,
                         AnalyzerOptions{entry});
}

// ---- rule corpus: one positive and one negative per rule ------------

TEST(Lint, ReadUnwrittenFlagged)
{
    const BbopObjectTable t = smallTable();
    // Standalone (Unwritten entry): the very first trsp reads a host
    // image nothing produced.
    const AnalysisResult pos = analyze({BbopInstr::trsp(kA, 8)}, t,
                                       EntryAssumption::Unwritten);
    ASSERT_EQ(pos.diagnostics.size(), 1u);
    EXPECT_EQ(pos.diagnostics[0].rule, LintRule::ReadUnwritten);
    EXPECT_EQ(pos.diagnostics[0].severity, LintSeverity::Error);
    EXPECT_EQ(pos.diagnostics[0].node, 0u);
    EXPECT_EQ(pos.diagnostics[0].obj, kA);

    // The identical stream is fine at submit time, where defineObject
    // has zero-filled the host image.
    EXPECT_TRUE(analyze({BbopInstr::trsp(kA, 8)}, t,
                        EntryAssumption::FromView)
                    .diagnostics.empty());

    // Unwritten entry is satisfied by an in-program write.
    EXPECT_TRUE(analyze({BbopInstr::init(kA, 8, 1),
                         BbopInstr::unary(OpKind::Relu, 8, kY, kA)},
                        t, EntryAssumption::Unwritten)
                    .diagnostics.empty());
}

TEST(Lint, ReadUnwrittenSuppressesMalformedOnSameNode)
{
    const BbopObjectTable t = smallTable();
    // The validator also rejects this (op source not vertical); the
    // dataflow rule keeps the attribution.
    const AnalysisResult r =
        analyze({BbopInstr::unary(OpKind::Relu, 8, kY, kA)}, t,
                EntryAssumption::Unwritten);
    EXPECT_EQ(r.count(LintRule::ReadUnwritten), 1u);
    EXPECT_EQ(r.count(LintRule::Malformed), 0u);
}

TEST(Lint, LayoutMismatchOnTrspOverFreshVertical)
{
    const BbopObjectTable t = smallTable();
    // After the Add, y's current value lives in the vertical image;
    // the closing trsp would clobber it with the stale host copy. The
    // ISA validator ACCEPTS this stream — only the analyzer sees it.
    const std::vector<BbopInstr> pos = {
        BbopInstr::trsp(kA, 8),
        BbopInstr::trsp(kB, 8),
        BbopInstr::binary(OpKind::Add, 8, kY, kA, kB),
        BbopInstr::unary(OpKind::Relu, 8, kA, kY), // keeps y read
        BbopInstr::trsp(kY, 8),
    };
    const AnalysisResult r = analyze(pos, t);
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].rule, LintRule::LayoutMismatch);
    EXPECT_EQ(r.diagnostics[0].severity, LintSeverity::Error);
    EXPECT_EQ(r.diagnostics[0].node, 4u);
    EXPECT_EQ(r.diagnostics[0].obj, kY);

    // Reading the CURRENT image instead (trsp_inv copies the fresh
    // vertical value out) is clean.
    std::vector<BbopInstr> neg = pos;
    neg.back() = BbopInstr::trspInv(kY, 8);
    EXPECT_TRUE(analyze(neg, t).diagnostics.empty());
}

TEST(Lint, DeadWriteAnchoredToTheDeadWriter)
{
    const BbopObjectTable t = smallTable();
    const AnalysisResult pos =
        analyze({BbopInstr::init(kA, 8, 1), BbopInstr::init(kA, 8, 2)},
                t);
    ASSERT_EQ(pos.diagnostics.size(), 1u);
    EXPECT_EQ(pos.diagnostics[0].rule, LintRule::DeadWrite);
    EXPECT_EQ(pos.diagnostics[0].severity, LintSeverity::Warning);
    EXPECT_EQ(pos.diagnostics[0].node, 0u) << "anchored to the writer";
    EXPECT_EQ(pos.errorCount(), 0u);

    // A read between the writes keeps the first one live.
    EXPECT_TRUE(analyze({BbopInstr::init(kA, 8, 1),
                         BbopInstr::unary(OpKind::Relu, 8, kY, kA),
                         BbopInstr::init(kA, 8, 2)},
                        t)
                    .diagnostics.empty());
}

TEST(Lint, RedundantTrspFiresExactlyWhereHoistWouldElide)
{
    const BbopObjectTable t = smallTable();
    // init leaves both images coincident; the trsp is a no-op.
    const AnalysisResult pos =
        analyze({BbopInstr::init(kA, 8, 5), BbopInstr::trsp(kA, 8)},
                t);
    ASSERT_EQ(pos.diagnostics.size(), 1u);
    EXPECT_EQ(pos.diagnostics[0].rule, LintRule::RedundantTrsp);
    EXPECT_EQ(pos.diagnostics[0].severity, LintSeverity::Warning);
    EXPECT_EQ(pos.diagnostics[0].node, 1u);

    // Entry is NOT assumed coincident even FromView: a leading trsp
    // never fires (cross-submission redundancy is the runtime stream
    // cache's job).
    EXPECT_TRUE(analyze({BbopInstr::trsp(kA, 8)}, t)
                    .diagnostics.empty());
}

TEST(Lint, RedundantInitOnRebroadcastConstant)
{
    const BbopObjectTable t = smallTable();
    const std::vector<BbopInstr> pos = {
        BbopInstr::init(kA, 8, 7),
        BbopInstr::init(kB, 8, 3),
        BbopInstr::binary(OpKind::Add, 8, kY, kA, kB),
        BbopInstr::init(kA, 8, 7), // same constant, still in place
    };
    const AnalysisResult r = analyze(pos, t);
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].rule, LintRule::RedundantInit);
    EXPECT_EQ(r.diagnostics[0].node, 3u);

    // A different constant is a real (live) rewrite.
    std::vector<BbopInstr> neg = pos;
    neg.back() = BbopInstr::init(kA, 8, 8);
    EXPECT_TRUE(analyze(neg, t).diagnostics.empty());
}

TEST(Lint, SelfAliasOnInPlaceOpAndShift)
{
    const BbopObjectTable t = smallTable();
    for (const auto &pos :
         {std::vector<BbopInstr>{
              BbopInstr::trsp(kA, 8), BbopInstr::trsp(kB, 8),
              BbopInstr::binary(OpKind::Add, 8, kA, kA, kB)},
          {BbopInstr::trsp(kA, 8),
           BbopInstr::shift(true, 8, kA, kA, 1)}}) {
        const AnalysisResult r = analyze(pos, t);
        EXPECT_EQ(r.count(LintRule::SelfAlias), 1u);
        // The validator rejects these too; the specific rule keeps
        // the attribution.
        EXPECT_EQ(r.count(LintRule::Malformed), 0u);
    }
    EXPECT_TRUE(analyze({BbopInstr::trsp(kA, 8),
                         BbopInstr::trsp(kB, 8),
                         BbopInstr::binary(OpKind::Add, 8, kY, kA,
                                           kB)},
                        t)
                    .diagnostics.empty());
}

TEST(Lint, ShiftOverflowIsStrictlyNewOverTheValidator)
{
    const BbopObjectTable t = smallTable();
    const std::vector<BbopInstr> pos = {
        BbopInstr::trsp(kA, 8),
        BbopInstr::shift(true, 8, kY, kA, 8), // >= width: always 0
    };
    const AnalysisResult r = analyze(pos, t);
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].rule, LintRule::ShiftOverflow);
    EXPECT_EQ(r.diagnostics[0].severity, LintSeverity::Error);
    EXPECT_EQ(r.diagnostics[0].node, 1u);

    std::vector<BbopInstr> neg = pos;
    neg.back() = BbopInstr::shift(true, 8, kY, kA, 7);
    EXPECT_TRUE(analyze(neg, t).diagnostics.empty());
}

TEST(Lint, MalformedWrapsValidatorRejections)
{
    const BbopObjectTable t = smallTable();
    const AnalysisResult r = analyze({BbopInstr::trsp(99, 8)}, t);
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].rule, LintRule::Malformed);
    EXPECT_EQ(r.diagnostics[0].severity, LintSeverity::Error);
    // Messages carry the stable rule id prefix.
    EXPECT_EQ(r.diagnostics[0].message.rfind("malformed: ", 0), 0u);
}

// ---- differential vs the BbopValidator over the shared corpus -------

TEST(LintDifferential, AnalyzerStricterThanValidatorNeverLooser)
{
    BbopObjectTable t;
    for (auto [elements, bits] : testcorpus::corpusShapes())
        t.define(elements, bits);

    // Every validator-rejected stream must carry at least one
    // Error-severity finding (the analyzer is never looser) ...
    const auto &bad = testcorpus::malformedStreams();
    for (size_t s = 0; s < bad.size(); ++s) {
        const AnalysisResult r = analyze(bad[s], t);
        EXPECT_GE(r.errorCount(), 1u)
            << "malformed stream " << s
            << " accepted by the analyzer";
    }

    // ... and every validator-accepted stream analyzes Error-free
    // (Warnings — dead writes the optimizer would remove — are fine).
    for (const auto &ok : testcorpus::wellFormedStreams())
        EXPECT_EQ(analyze(ok, t).errorCount(), 0u);
}

// ---- submit-time wiring ---------------------------------------------

TEST(LintSubmit, StrictRejectsTypedAndSideEffectFree)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutorOptions opts = noPassesOpts(false);
    opts.lintMode = LintMode::Strict;
    StreamExecutor ex(g, opts);
    const uint16_t a = ex.defineObject(16, 8);
    const uint16_t y = ex.defineObject(16, 8);

    // Validator-legal, lint-illegal: the rejection is the lint's.
    const std::vector<BbopInstr> overflow = {
        BbopInstr::trsp(a, 8),
        BbopInstr::shift(true, 8, y, a, 8),
    };
    EXPECT_THROW(ex.submit(overflow), StreamLintError);
    // StreamLintError is a BbopError: callers' existing typed
    // rejection handling covers Strict mode unchanged.
    EXPECT_THROW(ex.submit(overflow), BbopError);

    // Side-effect-free: nothing published, nothing queued, and the
    // executor still accepts well-formed work afterwards.
    EXPECT_EQ(ex.lintDiagnosticCount(), 0u);
    EXPECT_TRUE(ex.drainDiagnostics().empty());
    ex.submit({BbopInstr::init(a, 8, 42)}).wait();
    EXPECT_EQ(ex.readObject(a), std::vector<uint64_t>(16, 42));

    // Warnings do not reject in Strict mode; they accumulate.
    ex.submit({BbopInstr::init(y, 8, 1), BbopInstr::init(y, 8, 2)})
        .wait();
    EXPECT_EQ(ex.lintDiagnosticCount(), 1u);
}

TEST(LintSubmit, WarnAccumulatesAndDrains)
{
    DeviceGroup g(testCfg(), 2);
    StreamExecutorOptions opts = noPassesOpts(false);
    opts.lintMode = LintMode::Warn;
    StreamExecutor ex(g, opts);
    const uint16_t a = ex.defineObject(16, 8);
    const uint16_t y = ex.defineObject(16, 8);

    // Warn accepts Errors too — it only reports.
    ex.submit({BbopInstr::trsp(a, 8),
               BbopInstr::shift(true, 8, y, a, 8)})
        .wait();
    ex.submit({BbopInstr::init(a, 8, 1), BbopInstr::init(a, 8, 2)})
        .wait();
    EXPECT_EQ(ex.lintDiagnosticCount(), 2u);

    const std::vector<StreamDiagnostic> d = ex.drainDiagnostics();
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0].rule, LintRule::ShiftOverflow);
    EXPECT_EQ(d[1].rule, LintRule::DeadWrite);
    // The counter is the lifetime total; the buffer drains once.
    EXPECT_TRUE(ex.drainDiagnostics().empty());
    EXPECT_EQ(ex.lintDiagnosticCount(), 2u);
}

TEST(LintSubmit, LintRunsOverTheOptimizedProgram)
{
    // The same redundant-trsp stream: with the hoisting pass ON the
    // redundancy is gone before the lint looks (what executes is
    // clean); with passes OFF the lint reports what will execute.
    const std::vector<BbopInstr> redundant = {
        BbopInstr::init(0, 8, 5),
        BbopInstr::trsp(0, 8),
    };
    {
        DeviceGroup g(testCfg(), 2);
        StreamExecutorOptions opts; // passes on by default
        opts.lintMode = LintMode::Strict;
        StreamExecutor ex(g, opts);
        ex.defineObject(16, 8);
        ex.submit(redundant).wait();
        EXPECT_EQ(ex.lintDiagnosticCount(), 0u);
    }
    {
        DeviceGroup g(testCfg(), 2);
        StreamExecutorOptions opts = noPassesOpts(false);
        opts.lintMode = LintMode::Warn;
        StreamExecutor ex(g, opts);
        ex.defineObject(16, 8);
        ex.submit(redundant).wait();
        EXPECT_EQ(ex.lintDiagnosticCount(), 1u);
        const auto d = ex.drainDiagnostics();
        ASSERT_EQ(d.size(), 1u);
        EXPECT_EQ(d[0].rule, LintRule::RedundantTrsp);
    }
}

// ---- translation validation -----------------------------------------

/**
 * Generates validator-legal random programs over the small table by
 * tracking the executor's layout rules (which objects are vertical,
 * whose host image is current) and only emitting legal choices.
 * Warnings (dead writes, redundancies) occur naturally; Error-level
 * defects cannot.
 */
struct ProgramGen
{
    Rng rng;
    std::vector<bool> vertical{false, false, false, false};
    std::vector<bool> hostCurrent{true, true, true, true};

    explicit ProgramGen(uint64_t seed) : rng(seed) {}

    uint16_t pick() { return static_cast<uint16_t>(rng.below(4)); }

    std::vector<BbopInstr>
    make(size_t len)
    {
        std::vector<BbopInstr> out;
        while (out.size() < len) {
            const uint16_t a = pick(), b = pick(), d = pick();
            switch (rng.below(6)) {
              case 0:
                if (hostCurrent[a]) {
                    out.push_back(BbopInstr::trsp(a, 8));
                    vertical[a] = true;
                }
                break;
              case 1:
                if (vertical[a]) {
                    out.push_back(BbopInstr::trspInv(a, 8));
                    hostCurrent[a] = true;
                }
                break;
              case 2:
                out.push_back(
                    BbopInstr::init(a, 8, rng.below(200)));
                vertical[a] = true;
                hostCurrent[a] = true;
                break;
              case 3:
                if (vertical[a] && vertical[b] && d != a && d != b) {
                    out.push_back(
                        BbopInstr::binary(OpKind::Add, 8, d, a, b));
                    vertical[d] = true;
                    hostCurrent[d] = false;
                }
                break;
              case 4:
                if (vertical[a] && d != a) {
                    out.push_back(
                        BbopInstr::unary(OpKind::Relu, 8, d, a));
                    vertical[d] = true;
                    hostCurrent[d] = false;
                }
                break;
              case 5:
                if (vertical[a] && d != a) {
                    out.push_back(BbopInstr::shift(
                        rng.below(2) == 0, 8, d, a,
                        1 + static_cast<uint16_t>(rng.below(7))));
                    vertical[d] = true;
                    hostCurrent[d] = false;
                }
                break;
            }
        }
        return out;
    }
};

TEST(TranslationValidationTest, AllPassCombosPreserveFactsRandomized)
{
    const BbopObjectTable t = smallTable();
    size_t totalKills = 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        const std::vector<BbopInstr> prog =
            ProgramGen(seed).make(24);

        // The three consumers of coherenceStep agree from an unknown
        // entry state: the hoisting pass kills exactly the nodes the
        // lint flags Redundant*, and a fresh executor's stream cache
        // elides as many, bit-exact with the cache off.
        StreamIR hoisted = StreamIR::lift(prog);
        const size_t kills =
            runPasses(hoisted, PassOptions{true, false, false}).hoisted;
        totalKills += kills;
        std::vector<bool> flagged(prog.size(), false);
        for (const StreamDiagnostic &d :
             analyze(prog, t).diagnostics)
            if (d.rule == LintRule::RedundantTrsp ||
                d.rule == LintRule::RedundantInit)
                flagged[d.node] = true;
        for (size_t n = 0; n < prog.size(); ++n)
            EXPECT_EQ(hoisted.nodes[n].dead, flagged[n])
                << "seed " << seed << " node " << n;
        testutil::DiffRig rig(2, noPassesOpts(true), noPassesOpts(false));
        for (uint16_t i = 0; i < 4; ++i) {
            rig.define(16, 8);
            rig.write(i, randomData(16, 0xff, seed * 10 + i));
        }
        const StreamResult cached = rig.run(prog).first;
        EXPECT_EQ(cached.cachedTrspInstructions +
                      cached.cachedInitInstructions,
                  kills)
            << "seed " << seed;
        rig.expectSameImages();

        for (unsigned combo = 0; combo < 8; ++combo) {
            const PassOptions popts{(combo & 1) != 0,
                                    (combo & 2) != 0,
                                    (combo & 4) != 0};
            StreamIR validated = StreamIR::lift(prog);
            const TranslationValidation tv = runPassesValidated(
                validated, popts, t,
                AnalyzerOptions{EntryAssumption::FromView});
            EXPECT_TRUE(tv.ok())
                << "seed " << seed << " combo " << combo << ": "
                << (tv.failures.empty()
                        ? ""
                        : tv.failures.front().pass + ": " +
                              tv.failures.front().message);

            // The validated pipeline is the production pipeline: the
            // resulting IR and stats must match runPasses exactly.
            StreamIR plain = StreamIR::lift(prog);
            const PassStats ps = runPasses(plain, popts);
            EXPECT_EQ(tv.stats.hoisted, ps.hoisted);
            EXPECT_EQ(tv.stats.deadEliminated, ps.deadEliminated);
            EXPECT_EQ(tv.stats.fusedSegments, ps.fusedSegments);
            ASSERT_EQ(validated.nodes.size(), plain.nodes.size());
            EXPECT_EQ(validated.segments, plain.segments);
            for (size_t n = 0; n < plain.nodes.size(); ++n) {
                EXPECT_EQ(validated.nodes[n].dead,
                          plain.nodes[n].dead)
                    << "node " << n;
                EXPECT_EQ(validated.nodes[n].segment,
                          plain.nodes[n].segment)
                    << "node " << n;
            }
        }
    }
    EXPECT_GT(totalKills, 0u) << "the agreement check saw no elision";
}

TEST(TranslationValidationTest, ValidatedExecutorMatchesReference)
{
    // End-to-end: a validatePasses executor (passes on, every pass
    // checked at submit time) must stay bit-exact against the
    // passes-off reference on randomized programs.
    StreamExecutorOptions vopts; // passes on
    vopts.validatePasses = true;
    vopts.lintMode = LintMode::Warn;
    for (uint64_t seed = 21; seed <= 24; ++seed) {
        testutil::DiffRig rig(2, vopts, noPassesOpts(false));
        for (int i = 0; i < 4; ++i)
            rig.define(16, 8);
        for (int i = 0; i < 4; ++i)
            rig.write(static_cast<uint16_t>(i),
                      randomData(16, 0xff, seed * 10 + i));
        ProgramGen gen(seed);
        for (int s = 0; s < 3; ++s)
            rig.run(gen.make(16));
        rig.expectSameImages();
    }
}

// ---- the coalescer's fused batch programs analyze clean -------------

TEST(LintAdoption, CoalescedBatchProgramsAnalyzeClean)
{
    const KnnServeSpec spec{/*refs=*/96, /*dims=*/4, /*bits=*/16};
    std::vector<std::vector<uint64_t>> refs;
    for (size_t d = 0; d < spec.dims; ++d)
        refs.push_back(randomData(spec.refs, 0xff, 31 + d));

    DeviceGroup g(testCfg(), 2);
    StreamExecutorOptions opts;
    opts.lintMode = LintMode::Warn;
    StreamExecutor ex(g, opts);
    RequestCoalescer co(
        ex, CoalescerOptions{/*maxBatch=*/4, /*maxLingerUs=*/0.0,
                             /*maxPending=*/0,
                             AdmissionPolicy::Shed});
    const uint32_t cls = co.registerClass(knnQueryClass(spec, refs));
    for (size_t r = 0; r < 10; ++r)
        co.submit(cls, knnQueryRequest(spec,
                                       randomData(spec.dims, 0xff,
                                                  100 + r)));
    co.drain();
    EXPECT_GE(co.completedRequests(), 10u);
    EXPECT_EQ(ex.lintDiagnosticCount(), 0u)
        << "a coalescer-fused batch program did not analyze clean";
}

} // namespace
} // namespace simdram
