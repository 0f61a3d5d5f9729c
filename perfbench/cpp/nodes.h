/**
 * @file
 * In-process serving nodes built only from the library's public API and
 * wired the way the example servers wire their --listen mode:
 * RpcServer -> ThreadedServer + TpcPolicy (+ VersionedPredictor reader)
 * -> QueryExecutor / MonteCarloPricer, with stage stats and a
 * StatsSampler attached. Also the benchmark-owned request hooks used by
 * traced runs.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tpc_policy.h"
#include "fanout/aggregator.h"
#include "finance/mc_pricer.h"
#include "net/rpc_server.h"
#include "obs/stage_stats.h"
#include "predict/versioned_model.h"
#include "search/executor.h"
#include "search/workload.h"
#include "server/threaded_server.h"

namespace perfbench {

/**
 * Benchmark-owned per-request timestamps, indexed by seq - base. Slot 0
 * holds the first invocation of a seq on a node, slot 1 a second one (a
 * hedged leg landing on its ring replica).
 */
class Hooks
{
  public:
    static constexpr int kSlots = 2;

    Hooks(std::uint64_t base, std::size_t capacity);

    /** Claims a slot for @p seq; -1 when out of range or both taken. */
    int claim(std::uint64_t seq);

    void setRx(std::uint64_t seq, int slot, std::int64_t ns);
    void setStart(std::uint64_t seq, int slot, std::int64_t ns);
    void setDone(std::uint64_t seq, int slot, std::int64_t ns);

    std::int64_t rx(std::uint64_t seq, int slot) const;
    std::int64_t start(std::uint64_t seq, int slot) const;
    std::int64_t done(std::uint64_t seq, int slot) const;

  private:
    std::size_t index(std::uint64_t seq, int slot) const
    {
        return static_cast<std::size_t>(seq - base_) * kSlots +
               static_cast<std::size_t>(slot);
    }

    std::uint64_t base_;
    std::size_t capacity_;
    std::unique_ptr<std::atomic<int>[]> claimed_;
    std::unique_ptr<std::atomic<std::int64_t>[]> rx_;
    std::unique_ptr<std::atomic<std::int64_t>[]> start_;
    std::unique_ptr<std::atomic<std::int64_t>[]> done_;
};

/** Builds the ThreadedJob for one request (the example servers' handler). */
using JobFactory = std::function<tpc::server::ThreadedJob(
    const tpc::net::Frame& request, std::vector<std::uint8_t>& response)>;

/** Worker count the example servers use: max(4, 2 x hardware threads). */
int defaultWorkers();

/** One TPC serving node on an ephemeral loopback port. */
class TpcNode
{
  public:
    TpcNode(const tpc::server::ThreadedServerConfig& serverConfig,
            tpc::policy::ParallelismPolicy& policy, JobFactory jobs,
            const tpc::predict::VersionedPredictor* predictor = nullptr,
            double predictorScale = 1.0);
    ~TpcNode();
    TpcNode(const TpcNode&) = delete;
    TpcNode& operator=(const TpcNode&) = delete;

    std::uint16_t port() const { return rpc_->port(); }
    tpc::server::ThreadedServer& server() { return *server_; }

    /** Attaches (or with nullptr detaches) the traced-run hooks. */
    void setHooks(Hooks* hooks) { hooks_.store(hooks); }

    /** The /statsz page, rendered the way the example servers render it
     *  (minus the /proc lane, which would read files). */
    std::string renderStatsz() const;

  private:
    tpc::server::ThreadedJob handle(const tpc::net::Frame& request,
                                    std::vector<std::uint8_t>& response);

    JobFactory jobs_;
    std::atomic<Hooks*> hooks_{nullptr};
    std::unique_ptr<tpc::obs::StageStatsCollector> stageStats_;
    std::unique_ptr<tpc::obs::StatsSampler> sampler_;
    std::unique_ptr<tpc::server::ThreadedServer> server_;
    std::unique_ptr<tpc::net::RpcServer> rpc_;
    std::thread loop_;
    int numWorkers_;
};

/** The search service of examples/search_server: index, trained GBDT
 *  predictor, latent-to-real ms factor and per-query features. */
struct SearchService
{
    SearchService(std::uint32_t docs, std::size_t trainingQueries,
                  std::size_t queries);

    tpc::search::SearchWorkload workload;
    tpc::search::QueryExecutor executor;
    std::vector<tpc::search::DocRange> chunks;
    double scale = 0.0; ///< real ms per latent ms
    std::vector<std::vector<double>> features;
    tpc::predict::VersionedPredictor predictor;

    std::size_t queryCount() const { return workload.traceQueries().size(); }

    /** Job for query @p idx; writes the top-k score bit patterns (the
     *  shard reply format). */
    tpc::server::ThreadedJob makeJob(std::size_t idx,
                                     std::vector<std::uint8_t>& response,
                                     double longThresholdMs) const;
};

/** Top-k score bits of QueryExecutor::executeSequential. */
struct SearchAnswer
{
    std::vector<std::uint64_t> topScores;
};

std::vector<SearchAnswer> sequentialAnswers(const SearchService& service,
                                            int threads);

/** Appends a shard's top-k reply (score bit patterns) to @p out. */
void appendTopScores(const std::vector<tpc::search::ScoredDoc>& docs,
                     std::vector<std::uint8_t>& out);

/** The pricing service of examples/finance_server. */
struct FinanceService
{
    FinanceService();

    static constexpr int kChunks = 16;
    tpc::finance::MonteCarloPricer pricer;
    tpc::finance::AsianOptionParams option;
    tpc::finance::DemandEstimator estimator;
    std::uint64_t shortPaths = 0;
    std::uint64_t longPaths = 0;

    static bool isLong(std::uint64_t key)
    {
        return (key * 2654435761u) % 10 == 0;
    }
    std::uint64_t pathsFor(std::uint64_t key) const
    {
        return isLong(key) ? longPaths : shortPaths;
    }

    tpc::server::ThreadedJob makeJob(std::uint64_t key,
                                     std::vector<std::uint8_t>& response) const;

    /** The same pricing computed inline, chunk by chunk in order. */
    double priceInline(std::uint64_t key) const;
};

/** A 4-shard partition-aggregate tier: TPC search shards behind an
 *  AggregatorServer with ring-replica hedging. */
class FanoutTier
{
  public:
    FanoutTier(const SearchService& service, int shards);
    ~FanoutTier();

    std::uint16_t port() const { return aggregator_->port(); }
    std::vector<std::unique_ptr<TpcNode>>& shards() { return shards_; }
    tpc::fanout::AggregatorServer& aggregator() { return *aggregator_; }
    std::size_t topK() const { return topK_; }

  private:
    std::vector<std::unique_ptr<tpc::core::TpcPolicy>> policies_;
    std::vector<std::unique_ptr<TpcNode>> shards_;
    std::unique_ptr<tpc::fanout::AggregatorServer> aggregator_;
    std::thread loop_;
    std::size_t topK_ = 0;
};

} // namespace perfbench
