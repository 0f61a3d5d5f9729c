/**
 * @file
 * Per-layer micro-timings: each times one public function of a layer on
 * inputs drawn from the running workload and reports the median of
 * several timed batches.
 */
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "nodes.h"

namespace perfbench {

/** Inputs the micro-timings draw from. */
struct MicroInputs
{
    const SearchService* search = nullptr; ///< predictor, features, queries
    const std::vector<SearchAnswer>* answers = nullptr; ///< shard replies
    std::function<std::string()> renderStatsz;
};

/** Runs every micro-timing; keys are per-layer metric names. */
std::map<std::string, double> runMicroTimings(const MicroInputs& inputs);

} // namespace perfbench
