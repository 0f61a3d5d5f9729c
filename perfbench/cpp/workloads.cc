#include "workloads.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "fanout/merge.h"
#include "harness/policies.h"

namespace perfbench {

using namespace tpc;

const std::vector<Spec>&
specs()
{
    static const std::vector<Spec> all = {
        {"finance_mc", 40.0, 500.0},
        {"fanout4_hedged", 100.0, 80.0},
    };
    return all;
}

int
hardwareThreads()
{
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

namespace {

/** Search fixture for micro-timings on workloads that serve no search. */
class SmallSearch
{
  public:
    const SearchService& service()
    {
        if (!service_) {
            service_ = std::make_unique<SearchService>(4000, 2000, 300);
            answers_ = sequentialAnswers(*service_, hardwareThreads());
        }
        return *service_;
    }
    const std::vector<SearchAnswer>& answers()
    {
        service();
        return answers_;
    }

  private:
    std::unique_ptr<SearchService> service_;
    std::vector<SearchAnswer> answers_;
};

class FinanceBench final : public Bench
{
  public:
    static constexpr std::uint64_t kKeys = 100;

    FinanceBench()
        : policy_(harness::financeExecutionModel(),
                  core::TargetTable::financeDefault(), tpcOptions())
    {
        server::ThreadedServerConfig config;
        config.numWorkers = defaultWorkers();
        config.longThresholdMs = 30.0;
        node_ = std::make_unique<TpcNode>(
            config, policy_,
            [this](const net::Frame& request,
                   std::vector<std::uint8_t>& response) {
                std::uint64_t key = 0;
                net::readU64(request.payload, 8, &key);
                return service_.makeJob(key, response);
            });
    }

    static core::TpcOptions tpcOptions()
    {
        core::TpcOptions options;
        options.maxDegree = 4;
        return options;
    }

    std::uint16_t port() override { return node_->port(); }
    std::uint64_t argRange() const override { return kKeys; }
    std::uint64_t readyArg() const override
    {
        std::uint64_t key = 0;
        while (FinanceService::isLong(key))
            ++key;
        return key;
    }
    void prepareAnswers() override
    {
        prices_.assign(kKeys, 0.0);
        std::vector<std::thread> pool;
        std::atomic<std::uint64_t> next{0};
        for (int t = 0; t < hardwareThreads(); ++t)
            pool.emplace_back([&] {
                for (std::uint64_t k = next++; k < kKeys; k = next++)
                    prices_[k] = service_.priceInline(k);
            });
        for (std::thread& t : pool)
            t.join();
    }
    bool check(const Request& r, const net::Frame& f) const override
    {
        std::uint64_t bits = 0;
        if (f.payload.size() != 8 || !net::readU64(f.payload, 0, &bits))
            return false;
        const double price = std::bit_cast<double>(bits);
        const double expected = prices_[r.arg];
        // Chunk sums are added in the same order on both sides; allow only
        // for a different summation order.
        return std::fabs(price - expected) <=
               1e-12 * std::max(1.0, std::fabs(expected));
    }
    std::vector<TpcNode*> nodes() override { return {node_.get()}; }
    const SearchService& searchFixture() override { return small_.service(); }
    const std::vector<SearchAnswer>& searchAnswers() override
    {
        return small_.answers();
    }
    const char* execLayer() const override { return "finance"; }

  private:
    FinanceService service_;
    core::TpcPolicy policy_;
    std::unique_ptr<TpcNode> node_;
    std::vector<double> prices_;
    SmallSearch small_;
};

class FanoutBench final : public Bench
{
  public:
    static constexpr int kShards = 4;

    FanoutBench() : service_(5000, 6000, 600), tier_(service_, kShards) {}

    std::uint16_t port() override { return tier_.port(); }
    std::uint64_t argRange() const override { return service_.queryCount(); }
    void prepareAnswers() override
    {
        answers_ = sequentialAnswers(service_, hardwareThreads());
        merged_.resize(answers_.size());
        for (std::size_t q = 0; q < answers_.size(); ++q) {
            std::vector<fanout::ShardReply> replies(kShards);
            for (int s = 0; s < kShards; ++s) {
                replies[static_cast<std::size_t>(s)].shard =
                    static_cast<std::size_t>(s);
                appendScores(answers_[q].topScores,
                             replies[static_cast<std::size_t>(s)].payload);
            }
            fanout::mergeTopK(replies, tier_.topK(), merged_[q]);
        }
    }
    bool check(const Request& r, const net::Frame& f) const override
    {
        return f.shardsAnswered == kShards && f.shardsTotal == kShards &&
               f.payload == merged_[r.arg];
    }
    std::vector<TpcNode*> nodes() override
    {
        std::vector<TpcNode*> out;
        for (auto& shard : tier_.shards())
            out.push_back(shard.get());
        return out;
    }
    FanoutTier* tier() override { return &tier_; }
    const SearchService& searchFixture() override { return service_; }
    const std::vector<SearchAnswer>& searchAnswers() override
    {
        return answers_;
    }
    const char* execLayer() const override { return "search"; }

  private:
    static void appendScores(const std::vector<std::uint64_t>& scores,
                             std::vector<std::uint8_t>& out)
    {
        for (std::uint64_t v : scores)
            net::appendU64(out, v);
    }

    SearchService service_;
    FanoutTier tier_;
    std::vector<SearchAnswer> answers_;
    std::vector<std::vector<std::uint8_t>> merged_;
};

} // namespace

std::unique_ptr<Bench>
makeBench(const std::string& name)
{
    if (name == "finance_mc")
        return std::make_unique<FinanceBench>();
    if (name == "fanout4_hedged")
        return std::make_unique<FanoutBench>();
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
