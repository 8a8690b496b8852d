/**
 * @file
 * Tests for the CPU/GPU roofline models and the host kernels.
 */

#include <gtest/gtest.h>

#include "baseline/cpu_model.h"
#include "baseline/host_kernels.h"
#include "common/error.h"
#include "common/rng.h"

namespace simdram
{
namespace
{

TEST(Baseline, BytesPerElementShapes)
{
    // add32: two 4B inputs + one 4B output.
    EXPECT_DOUBLE_EQ(bytesPerElement(OpKind::Add, 32), 12.0);
    // relu8: one input byte + one output byte.
    EXPECT_DOUBLE_EQ(bytesPerElement(OpKind::Relu, 8), 2.0);
    // eq32: two 4B inputs + a 1-bit output.
    EXPECT_DOUBLE_EQ(bytesPerElement(OpKind::Eq, 32), 8.125);
    // if_else8: two inputs + sel bit + output.
    EXPECT_DOUBLE_EQ(bytesPerElement(OpKind::IfElse, 8), 3.125);
}

TEST(Baseline, MemoryBoundLatency)
{
    const auto p = cpuParams();
    const size_t n = 1 << 20;
    const auto r = modelRun(p, OpKind::Add, 32, n);
    const double bytes = 12.0 * n;
    EXPECT_DOUBLE_EQ(r.latencyNs, bytes / p.memBwGBs);
    EXPECT_GT(r.throughputGops(), 0.0);
}

TEST(Baseline, DivHitsAluCeilingOnCpu)
{
    const auto p = cpuParams();
    const size_t n = 1 << 20;
    const auto r = modelRun(p, OpKind::Div, 32, n);
    EXPECT_DOUBLE_EQ(r.latencyNs,
                     static_cast<double>(n) / p.aluGopsDiv);
}

TEST(Baseline, GpuFasterThanCpu)
{
    const size_t n = 1 << 20;
    const auto c = modelRun(cpuParams(), OpKind::Add, 32, n);
    const auto g = modelRun(gpuParams(), OpKind::Add, 32, n);
    EXPECT_LT(g.latencyNs, c.latencyNs);
    EXPECT_LT(g.energyPj, c.energyPj);
}

TEST(Baseline, EnergyScalesWithElements)
{
    const auto p = cpuParams();
    const auto r1 = modelRun(p, OpKind::Add, 32, 1000);
    const auto r2 = modelRun(p, OpKind::Add, 32, 2000);
    EXPECT_DOUBLE_EQ(r2.energyPj, 2 * r1.energyPj);
}

TEST(Baseline, WiderElementsMoveMoreBytes)
{
    const auto p = cpuParams();
    const auto r8 = modelRun(p, OpKind::Add, 8, 1 << 20);
    const auto r64 = modelRun(p, OpKind::Add, 64, 1 << 20);
    EXPECT_GT(r64.latencyNs, r8.latencyNs);
}

TEST(HostKernels, MatchesReferenceOp)
{
    Rng rng(6);
    std::vector<uint64_t> a(500), b(500), sel(500);
    for (size_t i = 0; i < 500; ++i) {
        a[i] = rng.next();
        b[i] = rng.next();
        sel[i] = rng.next() & 1;
    }
    // Every operation (each has its own specialized bulk loop) at
    // several widths.
    std::vector<OpKind> ops(kAllOps.begin(), kAllOps.end());
    ops.insert(ops.end(), kExtensionOps.begin(), kExtensionOps.end());
    for (size_t width : {8, 16, 64}) {
        for (OpKind op : ops) {
            const auto sig = signatureOf(op, width);
            const auto out = hostBulkOp(
                op, width, a,
                sig.numInputs == 2 ? b : std::vector<uint64_t>(),
                sig.hasSel ? sel : std::vector<uint64_t>());
            for (size_t i = 0; i < 500; ++i) {
                const uint64_t expect = referenceOp(
                    op, width, a[i], sig.numInputs == 2 ? b[i] : 0,
                    sig.hasSel && (sel[i] & 1));
                ASSERT_EQ(out[i], expect)
                    << toString(op) << "." << width << " " << i;
            }
        }
    }
}

TEST(HostKernels, SizeMismatchRejected)
{
    std::vector<uint64_t> a(4, 0), b(5, 0);
    EXPECT_THROW(hostBulkOp(OpKind::Add, 8, a, b), FatalError);
}

TEST(HostKernels, Add32Vectorized)
{
    std::vector<uint32_t> a(100), b(100), out(100);
    for (size_t i = 0; i < 100; ++i) {
        a[i] = static_cast<uint32_t>(i * 3);
        b[i] = static_cast<uint32_t>(i * 5);
    }
    hostAdd32(a.data(), b.data(), out.data(), 100);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(out[i], a[i] + b[i]);
}

} // namespace
} // namespace simdram
