/**
 * @file
 * Small helpers shared by the benchmark's client, nodes and report:
 * a monotonic nanosecond clock, percentile summaries and resource
 * counters read through getrusage/clock_gettime (never through files).
 */
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/** CLOCK_MONOTONIC in ns — the clock std::chrono::steady_clock uses. */
inline std::int64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

/** Process and calling-thread CPU time plus context switches. */
struct ResourceSample
{
    double processCpuNs = 0.0;
    double threadCpuNs = 0.0;
    std::int64_t processCtx = 0;
    std::int64_t threadCtx = 0;

    static ResourceSample take()
    {
        ResourceSample s;
        s.processCpuNs = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
        s.threadCpuNs = cpuNs(CLOCK_THREAD_CPUTIME_ID);
        rusage self{};
        getrusage(RUSAGE_SELF, &self);
        s.processCtx = self.ru_nvcsw + self.ru_nivcsw;
        rusage thread{};
        getrusage(RUSAGE_THREAD, &thread);
        s.threadCtx = thread.ru_nvcsw + thread.ru_nivcsw;
        return s;
    }
};

/** Peak resident set size of the process in MiB (getrusage ru_maxrss). */
inline double
peakRssMb()
{
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

/** Sorted-sample percentile summary (nearest-rank on a sorted copy). */
struct Summary
{
    std::vector<double> sorted;

    explicit Summary(std::vector<double> values) : sorted(std::move(values))
    {
        std::sort(sorted.begin(), sorted.end());
    }

    std::size_t count() const { return sorted.size(); }

    /** q in [0, 1]; 0 for an empty summary. */
    double quantile(double q) const
    {
        if (sorted.empty())
            return 0.0;
        const double pos = q * static_cast<double>(sorted.size() - 1);
        const auto lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
        const double frac = pos - static_cast<double>(lo);
        return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
    }

    double p50() const { return quantile(0.50); }
    double p99() const { return quantile(0.99); }
};

inline double
median(std::vector<double> values)
{
    return Summary(std::move(values)).p50();
}

} // namespace perfbench
