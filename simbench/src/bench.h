/**
 * @file
 * Shared plumbing of the simbench program: command-line arguments, the
 * metric lists a workload reports, clocks, order statistics, the
 * seeded input generator and the process's peak memory.
 */

#ifndef SIMBENCH_BENCH_H
#define SIMBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace simbench
{

class Tracer;

using Clock = std::chrono::steady_clock;

/** @return Nanoseconds from @p a to @p b. */
inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** @return @p ns as a steady_clock duration. */
inline Clock::duration
fromNs(double ns)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::nano>(ns));
}

/** Parsed command line. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut; ///< Chrome trace-event file (traced runs).
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload pass measured. */
struct Outcome
{
    /** Every output lane matched the benchmark's host arithmetic. */
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /**
     * The DramStats-derived metrics, which must repeat exactly: a
     * traced run compares them against its untraced pass.
     */
    std::vector<Metric> modeled;
    /**
     * The workload's headline host-time metric and whether higher is
     * better, for the tracing-overhead comparison.
     */
    std::string headline;
    bool headlineHigher = true;
};

/** A workload entry point; @p tracer is null in an untraced pass. */
using WorkloadFn = Outcome (*)(const Args &, Tracer *);

Outcome runOpsSweep(const Args &args, Tracer *tracer);
Outcome runServeKnn(const Args &args, Tracer *tracer);
Outcome runTenantMix(const Args &args, Tracer *tracer);
Outcome runBulkChecked(const Args &args, Tracer *tracer);

/**
 * Linear-interpolated quantile @p q in [0,1] of @p v (copied and
 * sorted); 0 for an empty sample.
 */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * @return The least-disturbed quartile of per-window values: the
 * lower quartile of a lower-is-better figure, the upper of a
 * higher-is-better one. A busy shared host slows some windows of a
 * run and never speeds any up, so this quartile tracks the program
 * while a median still moves with the neighbours' load.
 */
inline double
leastDisturbed(std::vector<double> v, bool higherBetter)
{
    return quantile(std::move(v), higherBetter ? 0.75 : 0.25);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** @return The process's peak resident set size in MB. */
double peakRssMb();

/**
 * splitmix64: the benchmark's own input generator, so inputs depend
 * on --seed alone and never on library code.
 */
class Gen
{
  public:
    explicit Gen(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** @return A value in [0, bound). */
    uint64_t below(uint64_t bound) { return next() % bound; }

  private:
    uint64_t s_;
};

/** @return The all-ones mask of @p bits bits. */
inline uint64_t
maskOf(size_t bits)
{
    return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
}

} // namespace simbench

#endif // SIMBENCH_BENCH_H
