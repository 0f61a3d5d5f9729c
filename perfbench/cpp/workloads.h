/**
 * @file
 * The benchmark's workloads: fixed per-workload parameters and the
 * serving topology each one drives, with its answer check.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "nodes.h"

namespace perfbench {

/** Fixed per-workload parameters (README.md says how they were chosen). */
struct Spec
{
    std::string name;
    double nominalQps = 0.0;
    double sloP99Ms = 0.0; ///< latency limit for slo_qps
};

/** Every workload this binary knows, by name. */
const std::vector<Spec>& specs();

/** One workload's serving topology plus its answer check. */
class Bench
{
  public:
    virtual ~Bench() = default;
    virtual std::uint16_t port() = 0;
    /** Number of distinct request keys; each run cycles through all. */
    virtual std::uint64_t argRange() const = 0;
    /** Key of the readiness probe that ends each set-up: one of the
     *  cheapest requests, so set-up time is not the time of a heavy one. */
    virtual std::uint64_t readyArg() const { return 0; }
    /** Benchmark-side expected answers (not part of set-up time). */
    virtual void prepareAnswers() = 0;
    virtual bool check(const Request& r,
                       const tpc::net::Frame& f) const = 0;
    /** TPC nodes of the topology (every shard for the fan-out tier). */
    virtual std::vector<TpcNode*> nodes() = 0;
    virtual FanoutTier* tier() { return nullptr; }
    /** Search service used by micro-timings (a small one if none serves). */
    virtual const SearchService& searchFixture() = 0;
    virtual const std::vector<SearchAnswer>& searchAnswers() = 0;
    /** Which per-layer exec metrics the serving path feeds. */
    virtual const char* execLayer() const = 0;
};

/** Builds @p name's serving topology (nodes listening, loops running). */
std::unique_ptr<Bench> makeBench(const std::string& name);

/** std::thread::hardware_concurrency(), at least 1. */
int hardwareThreads();

} // namespace perfbench
