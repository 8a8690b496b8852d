/**
 * @file
 * Multi-device runtime benchmarks: throughput scaling of bbop
 * streams over a DeviceGroup at 1/2/4/8 devices, through the
 * asynchronous StreamExecutor. Emits BENCH_runtime.json.
 *
 * Two kinds of numbers per configuration:
 *  - "modeled": the simulated machine's throughput, from the
 *    per-stream DramStats latency (devices execute concurrently, so
 *    the stream latency is the slowest device's shard). This is the
 *    paper-style metric and is deterministic.
 *  - "wall": host wall clock of submit+wait, i.e. the simulator's
 *    own speed. It only scales with devices when the host has cores
 *    to back the worker threads, so the headline speedup pairs are
 *    the modeled ones.
 *
 * The wide-row workload matches bench_kernels' replay shape scaled
 * up: 4,096-lane subarrays, two compute banks per device, 64 Ki
 * 32-bit elements (16 segments), streams of 4 chained adds.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "common/rng.h"
#include "runtime/stream_executor.h"
#include "stream/stream_builder.h"

namespace
{

using namespace simdram;

DramConfig
deviceCfg()
{
    // Wide rows so row-copy work dominates; 1,024 rows per subarray
    // so three 32-bit vectors co-locate even with all 16 segments on
    // one device.
    DramConfig cfg = DramConfig::forTesting(4096, 1024);
    cfg.computeBanks = 2;
    return cfg;
}

constexpr size_t kElements = 16 * 4096; // 16 segments
constexpr size_t kOpsPerStream = 4;

/**
 * This fixture measures raw stream dispatch + execution of
 * kOpsPerStream chained adds, so the scalar passes stay off (they
 * would only add submit-side host work here — the ping-pong chain
 * below has nothing for them to remove). The submit-time lint runs
 * in Warn mode; the fixture asserts at teardown that every stream
 * analyzed clean.
 */
StreamExecutorOptions
rawStreamOpts(StreamExecutorOptions opts)
{
    opts.enableDeadWriteElim = false;
    opts.enableTrspHoist = false;
    opts.lintMode = LintMode::Warn;
    return opts;
}

/** A group + executor with a, b, y transposed and ready. */
struct RuntimeFixture
{
    DeviceGroup group;
    StreamExecutor ex;
    uint16_t a, b, y;

    explicit RuntimeFixture(size_t devices,
                            StreamExecutorOptions opts = {})
        : group(deviceCfg(), devices),
          ex(group, rawStreamOpts(opts)),
          a(ex.defineObject(kElements, 32)),
          b(ex.defineObject(kElements, 32)),
          y(ex.defineObject(kElements, 32))
    {
        Rng rng(0x5ca1e + devices);
        std::vector<uint64_t> da(kElements), db(kElements);
        for (size_t i = 0; i < kElements; ++i) {
            da[i] = rng.next() & 0xffffffffULL;
            db[i] = rng.next() & 0xffffffffULL;
        }
        ex.writeObject(a, da);
        ex.writeObject(b, db);
        StreamBuilder sb(ex);
        sb.trsp(a).trsp(b).trsp(y).submit().wait();
    }

    ~RuntimeFixture()
    {
        if (ex.lintDiagnosticCount() != 0)
            bench::fail("runtime fixture streams did not analyze "
                        "clean");
    }

    StreamHandle
    submitAdds()
    {
        // Chained adds ping-pong between y and a so every
        // intermediate result is read by the next op — a live chain
        // (the ISA forbids in-place ops, and identical repeated adds
        // would be dead writes). Only three vectors total: the device
        // config co-locates exactly three 32-bit vectors per
        // subarray, so a fourth scratch object would land elsewhere
        // and trip the Processor's co-location check.
        // y = a+b, a = y+b, y = a+b, ...
        StreamBuilder sb(ex);
        uint16_t dst = y, src = a;
        for (size_t i = 0; i < kOpsPerStream; ++i) {
            sb.binary(OpKind::Add, dst, src, b);
            std::swap(dst, src);
        }
        return sb.submit();
    }
};

void
benchWideRow(bench::Harness &h, size_t devices)
{
    RuntimeFixture f(devices);
    const size_t items = kElements * kOpsPerStream;
    const std::string tag = "d" + std::to_string(devices);

    // Modeled: simulated latency of one stream (deterministic).
    const StreamResult r = f.submitAdds().wait();
    h.record("runtime/add32-wide/modeled/" + tag, items,
             r.compute.latencyNs);

    // Wall clock: how fast the simulator executes the stream.
    h.run("runtime/add32-wide/wall/" + tag, items,
          [&] { f.submitAdds().wait(); });
}

void
benchBoundedPipeline(bench::Harness &h, size_t devices)
{
    // Backpressure path: a deep pipeline of streams against bounded
    // per-device queues (depth 4, Block). Submission runs ahead of
    // the devices until it hits the bound, so this times the steady
    // saturated state of the service rather than one stream at a
    // time.
    RuntimeFixture f(devices,
                     {/*maxQueuedStreams=*/4,
                      BackpressurePolicy::Block});
    constexpr size_t kPipeline = 8;
    const size_t items = kElements * kOpsPerStream * kPipeline;
    h.run("runtime/add32-wide/wall-bounded-q4/d" +
              std::to_string(devices),
          items, [&] {
              std::vector<StreamHandle> hs;
              hs.reserve(kPipeline);
              for (size_t i = 0; i < kPipeline; ++i)
                  hs.push_back(f.submitAdds());
              for (auto &x : hs)
                  x.wait();
          });
    std::printf("   bounded queue high watermark: %zu\n",
                f.ex.queueHighWatermark());
}

void
benchBrightnessStream(bench::Harness &h, size_t devices)
{
    // The brightness kernel's 3-op stream (add, compare, select) on
    // 16-bit pixels: a mixed-width stream with a predicated op.
    DeviceGroup group(deviceCfg(), devices);
    StreamExecutorOptions exOpts;
    exOpts.lintMode = LintMode::Warn;
    StreamExecutor ex(group, exOpts);
    const uint16_t img = ex.defineObject(kElements, 16);
    const uint16_t delta = ex.defineObject(kElements, 16);
    const uint16_t cap = ex.defineObject(kElements, 16);
    const uint16_t sum = ex.defineObject(kElements, 16);
    const uint16_t ovf = ex.defineObject(kElements, 1);
    const uint16_t out = ex.defineObject(kElements, 16);

    Rng rng(0xb1d);
    std::vector<uint64_t> pix(kElements);
    for (auto &p : pix)
        p = rng.below(256);
    ex.writeObject(img, pix);
    StreamBuilder b(ex);
    b.trsp(img)
        .trsp(delta)
        .init(delta, 70)
        .trsp(cap)
        .init(cap, 255)
        .trsp(sum)
        .trsp(ovf)
        .trsp(out)
        .submit()
        .wait();

    constexpr size_t kKernelOps = 3;
    const StreamResult r = b.binary(OpKind::Add, sum, img, delta)
                               .binary(OpKind::Gt, ovf, sum, cap)
                               .predicated(OpKind::IfElse, out, cap,
                                           sum, ovf)
                               .submit()
                               .wait();
    h.record("runtime/brightness/modeled/d" +
                 std::to_string(devices),
             kElements * kKernelOps, r.compute.latencyNs);
    if (ex.lintDiagnosticCount() != 0)
        bench::fail("brightness streams did not analyze clean");
}

void
benchStreamCache(bench::Harness &h, size_t devices)
{
    // knn-shaped pipeline: kQ queries against one resident reference
    // set of kDims columns, each per-(query, dimension) stream
    // self-contained (it re-transposes its reference column). The
    // stream cache elides every re-transpose after the first query;
    // the recorded metric is the *modeled* transposition-unit
    // latency summed over the distance streams, which is
    // deterministic — the cached/uncached ratio is exactly kQ.
    constexpr size_t kE = 8 * 4096; // 8 segments
    constexpr size_t kDims = 8, kQ = 4;
    constexpr uint8_t w = 16;
    const std::string tag = "d" + std::to_string(devices);

    for (int cached = 0; cached <= 1; ++cached) {
        DeviceGroup group(deviceCfg(), devices);
        StreamExecutorOptions opts;
        opts.enableStreamCache = cached != 0;
        opts.lintMode = LintMode::Warn;
        StreamExecutor ex(group, opts);

        Rng rng(0xca4e);
        std::vector<uint16_t> oref(kDims);
        for (auto &o : oref)
            o = ex.defineObject(kE, w);
        const uint16_t oq = ex.defineObject(kE, w);
        const uint16_t od = ex.defineObject(kE, w);
        const uint16_t oabs = ex.defineObject(kE, w);
        const uint16_t oa = ex.defineObject(kE, w);
        const uint16_t ob = ex.defineObject(kE, w);
        std::vector<uint64_t> col(kE);
        for (size_t d = 0; d < kDims; ++d) {
            for (auto &v : col)
                v = rng.below(1000);
            ex.writeObject(oref[d], col);
        }
        StreamBuilder b(ex);
        b.trsp(oq).trsp(od).trsp(oabs).trsp(oa).trsp(ob).submit()
            .wait();

        std::vector<StreamHandle> handles;
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t q = 0; q < kQ; ++q) {
            handles.push_back(b.init(oa, 0).submit());
            PingPong acc{oa, ob};
            for (size_t d = 0; d < kDims; ++d) {
                b.trsp(oref[d])
                    .init(oq, 13 + 17 * q + d)
                    .binary(OpKind::Sub, od, oref[d], oq)
                    .unary(OpKind::Abs, oabs, od)
                    .accumulate(acc, oabs);
                handles.push_back(b.submit());
            }
        }
        double trsp_ns = 0.0;
        size_t hits = 0;
        for (auto &x : handles) {
            const StreamResult r = x.wait();
            trsp_ns += r.transfer.latencyNs;
            hits += r.cachedInstructions;
        }
        const double wall_ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count();

        const char *mode = cached != 0 ? "cached" : "uncached";
        h.record("stream/knn-trsp/" + std::string(mode) + "/" + tag,
                 kE * kDims * kQ, trsp_ns);
        h.record("stream/knn-wall/" + std::string(mode) + "/" + tag,
                 kE * kDims * kQ, wall_ns);
        std::printf("   %s: %zu stream-cache hits\n", mode, hits);
        if (ex.lintDiagnosticCount() != 0)
            bench::fail("knn-trsp streams did not analyze clean");
    }
}

void
benchFusedKnn(bench::Harness &h, size_t devices)
{
    // The benchStreamCache pipeline again, but measuring the WHOLE
    // pipeline (setup transposes included) two ways:
    //  - "cached": one submission per stream, runtime trsp/init cache
    //    on. Transposition work = 5 setup trsps + the first query's
    //    8 reference trsps (later queries hit the cache) = 13.
    //  - "fused": the identical program as ONE multi-segment
    //    StreamBuilder submission through the optimizer passes. The
    //    5 setup trsps are dead writes (each image is fully
    //    overwritten before it is read), and trsp-hoisting drops the
    //    24 re-transposes of queries 1..3, leaving 8.
    // Both metrics are the deterministic modeled transposition-unit
    // latency, so the speedup is exactly 13/8 = 1.625. (Dead-write
    // elimination also prunes queries whose accumulator nothing
    // reads before the next query resets it — dead code in the
    // program as written; that affects only compute statistics, not
    // this transfer metric.)
    constexpr size_t kE = 8 * 4096; // 8 segments
    constexpr size_t kDims = 8, kQ = 4;
    constexpr uint8_t w = 16;
    const std::string tag = "d" + std::to_string(devices);

    for (int fused = 0; fused <= 1; ++fused) {
        DeviceGroup group(deviceCfg(), devices);
        StreamExecutorOptions exOpts; // cache and all passes on
        exOpts.lintMode = LintMode::Warn;
        StreamExecutor ex(group, exOpts);

        Rng rng(0xfa5e);
        std::vector<uint16_t> oref(kDims);
        for (auto &o : oref)
            o = ex.defineObject(kE, w);
        const uint16_t oq = ex.defineObject(kE, w);
        const uint16_t od = ex.defineObject(kE, w);
        const uint16_t oabs = ex.defineObject(kE, w);
        const uint16_t oa = ex.defineObject(kE, w);
        const uint16_t ob = ex.defineObject(kE, w);
        std::vector<uint64_t> col(kE);
        for (size_t d = 0; d < kDims; ++d) {
            for (auto &v : col)
                v = rng.below(1000);
            ex.writeObject(oref[d], col);
        }

        StreamBuilder b(ex);
        std::vector<StreamHandle> handles;
        const auto boundary = [&] {
            if (fused != 0)
                b.nextStream();
            else
                handles.push_back(b.submit());
        };
        b.trsp(oq).trsp(od).trsp(oabs).trsp(oa).trsp(ob);
        boundary();
        for (size_t q = 0; q < kQ; ++q) {
            b.init(oa, 0);
            boundary();
            PingPong acc{oa, ob};
            for (size_t d = 0; d < kDims; ++d) {
                b.trsp(oref[d])
                    .init(oq, 13 + 17 * q + d)
                    .binary(OpKind::Sub, od, oref[d], oq)
                    .unary(OpKind::Abs, oabs, od)
                    .accumulate(acc, oabs);
                boundary();
            }
        }
        if (fused != 0)
            for (auto &x : b.submitAll())
                handles.push_back(std::move(x));

        double trsp_ns = 0.0;
        size_t optimized = 0;
        for (auto &x : handles) {
            const StreamResult r = x.wait();
            trsp_ns += r.transfer.latencyNs;
            optimized += r.optimizedInstructions;
        }
        const char *mode = fused != 0 ? "fused" : "cached";
        h.record("stream/knn-pipeline/" + std::string(mode) + "/" +
                     tag,
                 kE * kDims * kQ, trsp_ns);
        std::printf("   %s: %zu instructions optimized away\n", mode,
                    optimized);
        if (ex.lintDiagnosticCount() != 0)
            bench::fail("knn-pipeline streams did not analyze "
                        "clean");
    }
}

void
benchIntegrity(bench::Harness &h, size_t devices)
{
    // Recovery-overhead sweep: the same wide-row add stream under
    // each integrity mode. Off must be indistinguishable from the
    // baseline wall numbers (the detection machinery is fully
    // bypassed); Checksum pays host-side shadow simulation plus its
    // row snapshots and verification reads, which are charged as
    // transfer, not compute (modeled compute is untouched);
    // DualModular re-executes every bbop op, so its modeled compute
    // latency is exactly 2x Off's.
    const std::string tag = "d" + std::to_string(devices);
    const struct
    {
        IntegrityMode mode;
        const char *name;
    } sweep[] = {
        {IntegrityMode::Off, "off"},
        {IntegrityMode::Checksum, "checksum"},
        {IntegrityMode::DualModular, "dual"},
    };
    for (const auto &s : sweep) {
        StreamExecutorOptions opts;
        opts.integrityMode = s.mode;
        RuntimeFixture f(devices, opts);
        const size_t items = kElements * kOpsPerStream;
        const StreamResult r = f.submitAdds().wait();
        h.record("runtime/integrity/" + std::string(s.name) +
                     "/modeled/" + tag,
                 items, r.compute.latencyNs);
        h.run("runtime/integrity/" + std::string(s.name) + "/wall/" +
                  tag,
              items, [&] { f.submitAdds().wait(); });
    }
}

} // namespace

int
main(int argc, char **argv)
{
    simdram::bench::Options defaults;
    defaults.out = "BENCH_runtime.json";
    defaults.schema = "simdram-bench-runtime-v1";
    simdram::bench::Options opts =
        simdram::bench::parseArgs(argc, argv, defaults);
    simdram::bench::Harness h(opts);

    for (size_t devices : {1, 2, 4, 8}) {
        std::printf("-- %zu device%s --\n", devices,
                    devices == 1 ? "" : "s");
        benchWideRow(h, devices);
        benchBrightnessStream(h, devices);
        if (devices == 1 || devices == 4) {
            benchBoundedPipeline(h, devices);
            benchStreamCache(h, devices);
            benchFusedKnn(h, devices);
        }
        if (devices == 4)
            benchIntegrity(h, devices);
    }

    h.speedup("runtime wide-row throughput 2 devices vs 1",
              "runtime/add32-wide/modeled/d1",
              "runtime/add32-wide/modeled/d2");
    h.speedup("runtime wide-row throughput 4 devices vs 1",
              "runtime/add32-wide/modeled/d1",
              "runtime/add32-wide/modeled/d4");
    h.speedup("runtime wide-row throughput 8 devices vs 1",
              "runtime/add32-wide/modeled/d1",
              "runtime/add32-wide/modeled/d8");
    h.speedup("runtime brightness throughput 4 devices vs 1",
              "runtime/brightness/modeled/d1",
              "runtime/brightness/modeled/d4");
    h.speedup("runtime wide-row wall clock 4 devices vs 1",
              "runtime/add32-wide/wall/d1",
              "runtime/add32-wide/wall/d4");
    // Deterministic: modeled transposition work of the knn-shaped
    // pipeline, uncached vs cached (= the query count, exactly).
    h.speedup("stream/knn-cached", "stream/knn-trsp/uncached/d4",
              "stream/knn-trsp/cached/d4");
    // Deterministic: whole-pipeline transposition work, per-stream
    // submissions + runtime cache vs one fused submission through
    // the optimizer passes (= 13/8, exactly).
    h.speedup("stream/knn-fused", "stream/knn-pipeline/cached/d4",
              "stream/knn-pipeline/fused/d4");
    h.speedup("stream/knn-cached wall 4 devices",
              "stream/knn-wall/uncached/d4",
              "stream/knn-wall/cached/d4");
    // Two-sided gate: IntegrityMode::Off must not perturb the hot
    // path (same config as the baseline wall runs above, measured
    // through the integrity sweep's fixture).
    h.speedup("runtime integrity off wall overhead",
              "runtime/add32-wide/wall/d4",
              "runtime/integrity/off/wall/d4");
    // Deterministic: DualModular re-executes every bbop op, so its
    // modeled compute latency is exactly 2x Off's (recorded as the
    // "slow" side so the factor reads as the cost multiplier).
    h.speedup("runtime integrity dual modeled cost",
              "runtime/integrity/dual/modeled/d4",
              "runtime/integrity/off/modeled/d4");
    // Ceiling-gated (wall): the host-side price of detection.
    h.speedup("runtime integrity checksum wall cost",
              "runtime/integrity/checksum/wall/d4",
              "runtime/integrity/off/wall/d4");
    return h.finish();
}
