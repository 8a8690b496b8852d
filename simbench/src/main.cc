/**
 * @file
 * simbench: the repository's end-to-end benchmark.
 *
 *   simbench --workload <ops-sweep|serve-knn|tenant-mix|bulk-checked>
 *            --seed <n> --seconds <s> --trace <0|1> [--trace-out f]
 *
 * --trace 0 runs the workload untraced and prints its end-to-end
 * metrics. --trace 1 runs it twice on half the time each, first
 * untraced and then with spans recorded; it prints the per-layer
 * metrics of the traced pass, the span table and the tracing
 * overhead, checks that the modeled (DramStats) metrics of the two
 * passes are identical, and writes the spans as Chrome trace-event
 * JSON. The last line of stdout is always one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. The exit code is
 * non-zero if any output lane was wrong.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "trace.h"

namespace simbench
{

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

} // namespace simbench

namespace
{

using namespace simbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload "
                 "<ops-sweep|serve-knn|tenant-mix|bulk-checked> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("--seed takes an unsigned integer");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(a.seconds > 0.0) || a.seconds > 600.0)
                usage("--seconds takes a number in (0, 600]");
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    return a;
}

const Metric *
find(const std::vector<Metric> &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("%s\n", title);
    for (const Metric &m : ms)
        std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
printResult(const Outcome &o, const std::vector<Metric> &ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                o.correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    WorkloadFn fn = nullptr;
    if (args.workload == "ops-sweep")
        fn = runOpsSweep;
    else if (args.workload == "serve-knn")
        fn = runServeKnn;
    else if (args.workload == "tenant-mix")
        fn = runTenantMix;
    else if (args.workload == "bulk-checked")
        fn = runBulkChecked;
    else
        usage("unknown workload");

    std::printf("simbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    std::printf("host: hardware_concurrency=%u compiler=\"%s\" "
                "build=%s\n",
                std::thread::hardware_concurrency(), SIMBENCH_COMPILER,
                SIMBENCH_BUILD_TYPE);
    std::fflush(stdout);

    if (!args.trace) {
        Outcome o = fn(args, nullptr);
        o.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MB"});
        printTable("end-to-end metrics:", o.endToEnd);
        printResult(o, o.endToEnd);
        return o.correct ? 0 : 1;
    }

    Args half = args;
    half.seconds = args.seconds / 2;
    const Outcome plain = fn(half, nullptr);
    Tracer tracer;
    Outcome traced = fn(half, &tracer);

    Outcome o = traced;
    o.attempted += plain.attempted;
    o.failed += plain.failed;
    bool same = true;
    for (const Metric &m : plain.modeled) {
        const Metric *t = find(traced.modeled, m.name);
        if (!t || t->value != m.value) {
            std::printf("MODELED MISMATCH %s: untraced %.17g traced "
                        "%.17g\n",
                        m.name.c_str(), m.value, t ? t->value : -1.0);
            same = false;
        }
    }
    o.correct = plain.correct && traced.correct && same;
    std::printf("modeled metrics identical with tracing on and off: "
                "%s (%zu compared)\n",
                same ? "yes" : "NO", plain.modeled.size());
    const Metric *u = find(plain.endToEnd, plain.headline);
    const Metric *t = find(traced.endToEnd, plain.headline);
    if (u && t && u->value > 0 && t->value > 0) {
        const double over = plain.headlineHigher
                                ? u->value / t->value - 1.0
                                : t->value / u->value - 1.0;
        std::printf("tracing overhead on %s: %+.2f%% (untraced %.6g, "
                    "traced %.6g, %zu spans)\n",
                    plain.headline.c_str(), 100.0 * over, u->value,
                    t->value, tracer.size());
    }
    tracer.printSummary();
    printTable("per-layer metrics (traced pass):", o.perLayer);
    if (!args.traceOut.empty()) {
        if (!tracer.writeChrome(args.traceOut)) {
            std::fprintf(stderr, "simbench: cannot write %s\n",
                         args.traceOut.c_str());
            return 1;
        }
        std::printf("trace: %s\n", args.traceOut.c_str());
    }
    printResult(o, o.perLayer);
    return o.correct ? 0 : 1;
}
