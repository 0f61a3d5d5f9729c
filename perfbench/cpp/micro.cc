#include "micro.h"

#include <random>

#include "common.h"
#include "core/tpc_policy.h"
#include "fanout/merge.h"
#include "harness/policies.h"
#include "net/frame.h"
#include "overload/admission.h"
#include "predict/flat_forest.h"

namespace perfbench {

using namespace tpc;

namespace {

/** Median over @p batches of the mean ns per op of @p ops calls. */
template <typename Fn>
double
nsPerOp(int batches, int ops, Fn&& fn)
{
    std::vector<double> perOp;
    for (int b = 0; b < batches; ++b) {
        const std::int64_t start = monoNs();
        for (int i = 0; i < ops; ++i)
            fn(i);
        perOp.push_back(static_cast<double>(monoNs() - start) / ops);
    }
    return median(std::move(perOp));
}

volatile double gSink = 0.0;

} // namespace

std::map<std::string, double>
runMicroTimings(const MicroInputs& in)
{
    std::map<std::string, double> out;

    // net: frame encode, one-shot decode and the server's FrameReader path.
    net::Frame frame;
    frame.type = net::FrameType::kRequest;
    frame.requestId = 42;
    frame.payload.assign(16, 0x5a); // seq + key, as the client sends
    std::vector<std::uint8_t> wire;
    out["net.frame_encode_ns"] = nsPerOp(9, 20000, [&](int i) {
        wire.clear();
        frame.requestId = static_cast<std::uint64_t>(i);
        net::encodeFrame(frame, wire);
    });
    out["net.frame_decode_ns"] = nsPerOp(9, 20000, [&](int) {
        const net::DecodeResult r = net::decodeFrame(wire.data(), wire.size());
        gSink = gSink + static_cast<double>(r.consumed);
    });
    net::FrameReader reader;
    net::Frame decoded;
    out["net.reader_ns"] = nsPerOp(9, 20000, [&](int) {
        reader.append(wire.data(), wire.size());
        reader.next(&decoded);
    });

    // admission: one admit + completion pair on the serving limits.
    overload::AdmissionLimits limits;
    limits.maxPending = 256;
    limits.maxInFlight = 512;
    overload::WeightedAdmissionController admission(limits);
    out["admission.admit_ns"] = nsPerOp(9, 20000, [&](int i) {
        if (admission.tryAdmit(i & 7))
            admission.onComplete();
    });

    // predict: single-row walk vs the 4-row batched walk, over the
    // workload's own feature rows.
    const SearchService& s = *in.search;
    const predict::FlatForest forest =
        predict::FlatForest::compile(s.workload.predictor());
    const std::size_t width = s.features.front().size();
    const std::size_t rows = s.features.size();
    std::vector<double> flat;
    flat.reserve(rows * width);
    for (const auto& row : s.features)
        flat.insert(flat.end(), row.begin(), row.end());
    out["predict.row_ns"] = nsPerOp(9, 2000, [&](int i) {
        gSink = gSink + forest.predict(
                            flat.data() +
                            (static_cast<std::size_t>(i) % rows) * width);
    });
    std::vector<double> batchOut(rows);
    out["predict.batch_row_ns"] =
        nsPerOp(9, 4, [&](int) {
            forest.predictBatch(flat.data(), rows, width, batchOut.data());
            gSink = gSink + batchOut[0];
        }) /
        static_cast<double>(rows);

    // policy: TPC's dispatch decision on the workload's predictions over a
    // spread of system states.
    core::TpcOptions options;
    options.maxDegree = 6;
    core::TpcPolicy policy(harness::webSearchExecutionModel(),
                           core::TargetTable::webSearchDefault(), options);
    std::mt19937_64 rng(7);
    std::vector<policy::SystemState> states(64);
    for (policy::SystemState& st : states) {
        st.totalWorkers = defaultWorkers();
        st.idleWorkers = static_cast<int>(rng() % (st.totalWorkers + 1));
        st.activeThreadsAll = st.totalWorkers - st.idleWorkers;
        st.activeThreadsLong = static_cast<int>(rng() % 4);
        st.queueLength = static_cast<int>(rng() % 3);
        st.hwContexts = 8;
    }
    out["policy.dispatch_ns"] = nsPerOp(9, 20000, [&](int i) {
        policy::RequestView view;
        view.id = static_cast<std::uint64_t>(i);
        view.predictedMs =
            s.workload.trace()[static_cast<std::size_t>(i) % rows]
                .predictedMs;
        const policy::Decision d = policy.onDispatch(
            view, states[static_cast<std::size_t>(i) % states.size()]);
        gSink = gSink + d.degree;
    });

    // fanout: the aggregator's top-k merge over four shard replies.
    const std::vector<SearchAnswer>& answers = *in.answers;
    std::vector<std::vector<fanout::ShardReply>> replySets;
    for (std::size_t q = 0; q < std::min<std::size_t>(answers.size(), 64);
         ++q) {
        std::vector<fanout::ShardReply> replies(4);
        for (std::size_t shard = 0; shard < replies.size(); ++shard) {
            replies[shard].shard = shard;
            for (std::uint64_t v : answers[q].topScores)
                net::appendU64(replies[shard].payload, v);
        }
        replySets.push_back(std::move(replies));
    }
    std::vector<std::uint8_t> merged;
    out["fanout.merge_ns"] = nsPerOp(9, 5000, [&](int i) {
        fanout::mergeTopK(
            replySets[static_cast<std::size_t>(i) % replySets.size()], 10,
            merged);
    });

    // finance: one chunk of a short pricing request (FinanceService's
    // path count split over its chunks).
    const FinanceService finance;
    const std::uint64_t chunkPaths =
        finance.shortPaths / FinanceService::kChunks;
    out["finance.chunk_us"] =
        nsPerOp(7, 5, [&](int i) {
            double payoff = 0.0;
            double payoffSq = 0.0;
            finance.pricer.priceChunk(finance.option, chunkPaths,
                                      static_cast<std::uint64_t>(i), payoff,
                                      payoffSq);
            gSink = gSink + payoff;
        }) /
        1e3;

    // obs: rendering the node's /statsz page from the live sampler.
    out["obs.statsz_render_us"] =
        nsPerOp(7, 50, [&](int) {
            gSink = gSink + static_cast<double>(in.renderStatsz().size());
        }) /
        1e3;

    // search: the sequential executor on a fixed sample of the queries.
    std::vector<double> seqMs;
    const std::size_t sample = std::min<std::size_t>(rows, 60);
    for (std::size_t q = 0; q < sample; ++q) {
        const std::int64_t start = monoNs();
        const search::SearchResult r = s.executor.executeSequential(
            s.workload.traceQueries()[(q * 7919) % rows]);
        seqMs.push_back(static_cast<double>(monoNs() - start) / 1e6);
        gSink = gSink + static_cast<double>(r.matchCount);
    }
    out["search.seq_p50_ms"] = median(std::move(seqMs));
    return out;
}

} // namespace perfbench
