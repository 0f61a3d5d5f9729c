/**
 * @file
 * Tests for the networked serving layer: admission-control accounting,
 * a loopback end-to-end run (open-loop client -> RpcServer ->
 * ThreadedServer under TPC -> responses), overload shedding with a
 * bounded accepted-tail, and graceful shutdown.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/tpc_policy.h"
#include "harness/policies.h"
#include "net/admission.h"
#include "net/loadgen.h"
#include "net/poller.h"
#include "net/rpc_server.h"
#include "net/statsz_client.h"
#include "obs/metrics.h"
#include "obs/span_collector.h"
#include "obs/stage_stats.h"
#include "obs/statsz.h"
#include "obs/trace_recorder.h"
#include "policy/baselines.h"
#include "server/threaded_server.h"

namespace tpc::net {
namespace {

void
busyWaitMs(double ms)
{
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    while (std::chrono::steady_clock::now() < until)
        std::this_thread::yield();
}

#if defined(__linux__)
TEST(Poller, MicrosecondTimeoutIsNotRoundedUpToWholeMs)
{
    // The open-loop client paces its sends with these waits, so a sub-ms
    // timeout must neither return early nor stretch to a whole ms.
    Poller poller;
    std::vector<PollEvent> events;
    double fastestUs = 1e9;
    for (int i = 0; i < 5; ++i) {
        const auto start = std::chrono::steady_clock::now();
        EXPECT_EQ(poller.wait(events, std::chrono::microseconds(200)), 0);
        const double elapsedUs =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start)
                .count();
        EXPECT_GE(elapsedUs, 200.0);
        fastestUs = std::min(fastestUs, elapsedUs);
    }
    EXPECT_LT(fastestUs, 1000.0);
}
#endif

TEST(AdmissionController, EnforcesInFlightLimit)
{
    AdmissionController admission(AdmissionLimits{2, 0, {}});
    EXPECT_TRUE(admission.tryAdmit(0));
    EXPECT_TRUE(admission.tryAdmit(0));
    EXPECT_FALSE(admission.tryAdmit(0));
    EXPECT_EQ(admission.inFlight(), 2);
    EXPECT_EQ(admission.accepted(), 2u);
    EXPECT_EQ(admission.shed(), 1u);

    admission.onComplete();
    EXPECT_TRUE(admission.tryAdmit(0));
    EXPECT_EQ(admission.accepted(), 3u);
}

TEST(AdmissionController, EnforcesPendingQueueLimit)
{
    AdmissionController admission(AdmissionLimits{0, 4, {}});
    EXPECT_TRUE(admission.tryAdmit(3));
    EXPECT_FALSE(admission.tryAdmit(4));
    EXPECT_FALSE(admission.tryAdmit(100));
    EXPECT_EQ(admission.shed(), 2u);
}

TEST(AdmissionController, NonPositiveLimitsMeanUnlimited)
{
    AdmissionController admission(AdmissionLimits{0, 0, {}});
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(admission.tryAdmit(i));
    EXPECT_EQ(admission.accepted(), 1000u);
    EXPECT_EQ(admission.shed(), 0u);
}

/** Loopback fixture: TPC-driven ThreadedServer behind an RpcServer on an
 *  ephemeral port, event loop on its own thread. */
class LoopbackServer
{
  public:
    LoopbackServer(const server::ThreadedServerConfig& serverConfig,
                   const AdmissionLimits& limits, double taskMs, int numTasks)
        : policy_(harness::webSearchExecutionModel(),
                  core::TargetTable::webSearchDefault(), tpcOptions()),
          threaded_(serverConfig, policy_),
          rpc_(rpcConfig(limits), threaded_,
               [this, taskMs, numTasks](
                   const Frame& request,
                   std::vector<std::uint8_t>& responsePayload) {
                   return makeJob(request, responsePayload, taskMs,
                                  numTasks);
               })
    {
        loop_ = std::thread([this] { rpc_.run(); });
    }

    ~LoopbackServer() { stop(); }

    void stop()
    {
        if (loop_.joinable()) {
            rpc_.requestStop();
            loop_.join();
        }
    }

    RpcServer& rpc() { return rpc_; }
    server::ThreadedServer& threaded() { return threaded_; }
    std::uint16_t port() const { return rpc_.port(); }
    std::uint64_t echoMismatches() const { return echoMismatches_.load(); }

  private:
    static core::TpcOptions tpcOptions()
    {
        core::TpcOptions options;
        options.maxDegree = 4;
        return options;
    }

    static RpcServerConfig rpcConfig(const AdmissionLimits& limits)
    {
        RpcServerConfig config;
        config.port = 0;
        config.admission = limits;
        return config;
    }

    server::ThreadedJob makeJob(const Frame& request,
                                std::vector<std::uint8_t>& responsePayload,
                                double taskMs, int numTasks)
    {
        std::uint64_t seq = 0;
        if (!readU64(request.payload, 0, &seq) || seq != request.requestId)
            echoMismatches_.fetch_add(1);
        server::ThreadedJob job;
        job.predictedMs = taskMs * numTasks;
        job.numTasks = numTasks;
        job.task = [taskMs](int) { busyWaitMs(taskMs); };
        job.postamble = [seq, &responsePayload] {
            appendU64(responsePayload, seq * 2 + 1);
        };
        return job;
    }

    core::TpcPolicy policy_;
    server::ThreadedServer threaded_;
    RpcServer rpc_;
    std::thread loop_;
    std::atomic<std::uint64_t> echoMismatches_{0};
};

TEST(RpcServer, LoopbackEndToEndCompletesEveryRequest)
{
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 4;
    serverConfig.hwContexts = 4;

    obs::TraceRecorder trace(8);
    obs::MetricsRegistry metrics;
    // Generous limits: nothing should be shed at this load.
    LoopbackServer server(serverConfig, AdmissionLimits{10000, 10000, {}},
                          /*taskMs=*/0.05, /*numTasks=*/4);
    server.rpc().attachTrace(&trace);
    server.rpc().attachMetrics(&metrics);
    server.threaded().attachTrace(&trace);
    server.threaded().attachMetrics(&metrics);

    LoadGenConfig loadConfig;
    loadConfig.port = server.port();
    loadConfig.qps = 2000.0;
    loadConfig.numRequests = 600;
    loadConfig.connections = 4;
    loadConfig.seed = 11;
    const LoadGenResult result = runLoadGen(loadConfig);

    EXPECT_EQ(result.sent, 600u);
    EXPECT_EQ(result.completed, 600u);
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.unanswered, 0u);
    EXPECT_EQ(result.connectionsLost, 0u);
    EXPECT_EQ(server.echoMismatches(), 0u);

    // Per-request latencies round-trip into a LatencySummary.
    const stats::LatencySummary summary = result.summary();
    EXPECT_EQ(summary.count, 600u);
    EXPECT_GT(summary.p50, 0.0);
    EXPECT_GE(summary.p999, summary.p50);
    EXPECT_GE(summary.max, summary.p999);

    server.stop();
    const RpcServerStats stats = server.rpc().stats();
    EXPECT_EQ(stats.requestsReceived, 600u);
    EXPECT_EQ(stats.responsesSent, 600u);
    EXPECT_EQ(stats.busySent, 0u);
    EXPECT_EQ(stats.protocolErrors, 0u);
    EXPECT_GE(stats.connectionsAccepted, 4u);

    // The trace spans the network boundary: NET_RECEIVE and NET_RESPOND
    // for every request, plus the ThreadedServer lifecycle in between.
    std::uint64_t netReceive = 0;
    std::uint64_t netRespond = 0;
    std::uint64_t dispatch = 0;
    for (const obs::TraceEvent& ev : trace.merged()) {
        if (ev.type == obs::TraceEventType::kNetReceive)
            ++netReceive;
        else if (ev.type == obs::TraceEventType::kNetRespond)
            ++netRespond;
        else if (ev.type == obs::TraceEventType::kDispatch)
            ++dispatch;
    }
    EXPECT_EQ(netReceive, 600u);
    EXPECT_EQ(netRespond, 600u);
    EXPECT_EQ(dispatch, 600u);
    // Unbounded shards: nothing may have been dropped on the floor.
    EXPECT_EQ(trace.droppedEvents(), 0u);

    // Shed/accepted/in-flight surface through the metrics registry (and
    // from there into the telemetry CSV).
    EXPECT_EQ(metrics.counter("net_accepted").value(), 600u);
    EXPECT_EQ(metrics.counter("net_shed").value(), 0u);
    EXPECT_DOUBLE_EQ(metrics.gauge("net_in_flight").value(), 0.0);
}

TEST(RpcServer, OverloadShedsAndKeepsAcceptedTailBounded)
{
    // Two workers at ~5 ms per request can serve ~400 QPS; offer ~2000.
    // With a pending queue capped at 8 the server must shed, and the
    // accepted requests' tail stays bounded by (queue cap x service time)
    // instead of growing with the backlog.
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 2;
    serverConfig.hwContexts = 2;

    LoopbackServer server(serverConfig, AdmissionLimits{16, 8, {}},
                          /*taskMs=*/5.0, /*numTasks=*/1);

    LoadGenConfig loadConfig;
    loadConfig.port = server.port();
    loadConfig.qps = 2000.0;
    loadConfig.numRequests = 800;
    loadConfig.connections = 4;
    loadConfig.seed = 13;
    const LoadGenResult result = runLoadGen(loadConfig);

    EXPECT_EQ(result.sent, 800u);
    EXPECT_EQ(result.completed + result.shed + result.errors, 800u);
    EXPECT_EQ(result.unanswered, 0u);
    EXPECT_GT(result.shed, 0u);
    EXPECT_GT(result.completed, 0u);

    server.stop();
    EXPECT_GT(server.rpc().admission().shed(), 0u);
    EXPECT_EQ(server.rpc().admission().accepted(), result.completed);

    // At 2000 QPS an unshed backlog of 800 x 5 ms work on 2 workers would
    // push the tail past a second; the admission bound keeps accepted
    // p99 in the tens of milliseconds. The ceiling is generous for slow
    // sanitizer machines yet far below the unbounded-queue latency.
    EXPECT_LT(result.summary().p99, 250.0);
}

TEST(RpcServer, RequestsDuringDrainAreAnsweredBusy)
{
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 2;
    LoopbackServer server(serverConfig, AdmissionLimits{64, 64, {}},
                          /*taskMs=*/0.1, /*numTasks=*/1);

    // First a burst that completes normally.
    LoadGenConfig loadConfig;
    loadConfig.port = server.port();
    loadConfig.qps = 500.0;
    loadConfig.numRequests = 50;
    loadConfig.connections = 2;
    const LoadGenResult before = runLoadGen(loadConfig);
    EXPECT_EQ(before.completed, 50u);

    // beginDrain() closes the submission path; the RPC layer must answer
    // BUSY rather than crash or hang.
    server.threaded().beginDrain();
    LoadGenConfig after = loadConfig;
    after.numRequests = 20;
    after.seed = 2;
    const LoadGenResult drained = runLoadGen(after);
    EXPECT_EQ(drained.sent, 20u);
    EXPECT_EQ(drained.completed, 0u);
    EXPECT_EQ(drained.shed, 20u);
    EXPECT_EQ(drained.unanswered, 0u);
}

TEST(RpcServer, DisconnectRetiresQueuedRequestsAndReleasesSlots)
{
    // A client queues a burst behind one slow worker and vanishes: the
    // server sees the EOF (and EPIPE/ECONNRESET on any in-flight write),
    // retires the connection's still-queued requests via tryCancel, and
    // releases their admission slots so the next client is not starved
    // by ghosts.
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 1;
    serverConfig.hwContexts = 1;
    obs::MetricsRegistry metrics;
    LoopbackServer server(serverConfig, AdmissionLimits{32, 32, {}},
                          /*taskMs=*/5.0, /*numTasks=*/1);
    server.rpc().attachMetrics(&metrics);

    std::string error;
    const int fd = connectTcp("127.0.0.1", server.port(), &error);
    ASSERT_GE(fd, 0) << error;
    {
        Poller poller;
        poller.add(fd, kPollOut);
        std::vector<PollEvent> events;
        poller.wait(events, 2000);
        ASSERT_TRUE(connectSucceeded(fd));
    }
    // ~120 ms of queued work on a 5 ms/request single worker.
    std::vector<std::uint8_t> wire;
    for (std::uint64_t i = 0; i < 24; ++i) {
        Frame request;
        request.type = FrameType::kRequest;
        request.requestId = i;
        appendU64(request.payload, i);
        encodeFrame(request, wire);
    }
    std::size_t offset = 0;
    while (offset < wire.size()) {
        std::size_t n = 0;
        const IoStatus status =
            writeSome(fd, wire.data() + offset, wire.size() - offset, &n);
        if (status == IoStatus::kOk) {
            offset += n;
        } else if (status == IoStatus::kWouldBlock) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
            FAIL() << "client write failed before the disconnect";
        }
    }
    // Let the server admit the burst (the queue now holds most of it),
    // THEN vanish — the point is retiring admitted-but-queued work.
    const auto admitDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < admitDeadline &&
           server.rpc().stats().requestsReceived < 24u)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.rpc().stats().requestsReceived, 24u);
    ::close(fd); // vanish with the burst still outstanding

    // The retirement happens on the event loop as soon as it notices;
    // the one dispatched request finishes on its own schedule.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline &&
           (server.rpc().admission().inFlight() != 0 ||
            server.rpc().stats().disconnectsRetired == 0))
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GT(server.rpc().stats().disconnectsRetired, 0u);
    EXPECT_EQ(server.rpc().admission().inFlight(), 0);
    // The retirement also surfaces through the metrics registry (and
    // from there into the telemetry CSV).
    EXPECT_EQ(metrics.counter("net_disconnects_retired").value(),
              server.rpc().stats().disconnectsRetired);

    // With the slots back, a well-behaved client gets full service.
    LoadGenConfig loadConfig;
    loadConfig.port = server.port();
    loadConfig.qps = 200.0;
    loadConfig.numRequests = 30;
    loadConfig.connections = 1;
    loadConfig.seed = 47;
    const LoadGenResult after = runLoadGen(loadConfig);
    EXPECT_EQ(after.completed, 30u);
    EXPECT_EQ(after.shed, 0u);
    server.stop();
}

/** Wires stage stats + a /statsz provider into a LoopbackServer (before
 *  any client connects, matching the attach-before-run discipline). */
void
installStatsz(LoopbackServer& server, obs::StageStatsCollector& stageStats,
              obs::StatsSampler& sampler)
{
    server.threaded().attachStageStats(&stageStats);
    server.rpc().attachStageStats(&stageStats);
    server.rpc().setStatszProvider([&server, &sampler] {
        obs::StatszInfo info;
        const policy::PolicySnapshot snap =
            server.threaded().policySnapshot();
        info.policyName = snap.name;
        for (const auto& [load, targetMs] : snap.targetTable)
            info.targetTable.push_back({load, targetMs});
        info.dispatches = snap.dispatches;
        info.corrections = snap.corrections;
        info.correctionThreadsAdded = snap.correctionThreadsAdded;
        info.totalWorkers = server.threaded().config().numWorkers;
        info.busyWorkers = server.threaded().busyWorkers();
        info.queueDepth = server.threaded().queueDepth();
        info.admitted = server.rpc().admission().accepted();
        info.shed = server.rpc().admission().shed();
        info.inFlight = static_cast<std::uint64_t>(
            server.rpc().admission().inFlight());
        info.deadlineExceeded = server.rpc().stats().deadlineExceeded;
        for (const TenantAdmissionSnapshot& t :
             server.rpc().admission().tenantSnapshots()) {
            obs::StatszTenantInfo lane;
            lane.tenant = t.tenant;
            lane.name = t.name;
            lane.weight = t.weight;
            lane.guarantee = t.guarantee;
            lane.admitted = t.accepted;
            lane.shed = t.shed;
            lane.goodput = t.goodput;
            lane.inFlight = t.inFlight;
            info.tenants.push_back(std::move(lane));
        }
        return obs::renderStatsz(info, sampler.latest().get());
    });
}

TEST(Statsz, LiveFetchDuringSaturationAttributesEveryMiss)
{
    // Undersized pool with generous admission: the queue grows without
    // bound, so accepted responses blow far past any target E — the
    // acceptance scenario for /statsz. The endpoint must keep answering
    // in bounded time mid-overload, and afterwards the four completion
    // causes must exactly partition the over-target completions.
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 2;
    serverConfig.hwContexts = 2;

    obs::TraceRecorder trace(8);
    LoopbackServer server(serverConfig, AdmissionLimits{100000, 100000, {}},
                          /*taskMs=*/5.0, /*numTasks=*/1);
    obs::StageStatsCollector stageStats({}, 8);
    obs::StatsSampler sampler(stageStats, /*intervalMs=*/20.0);
    installStatsz(server, stageStats, sampler);
    server.threaded().attachTrace(&trace);
    server.rpc().attachTrace(&trace);

    LoadGenConfig loadConfig;
    loadConfig.port = server.port();
    loadConfig.qps = 1500.0;
    loadConfig.numRequests = 400;
    loadConfig.connections = 4;
    loadConfig.seed = 17;
    LoadGenResult result;
    std::thread client([&] { result = runLoadGen(loadConfig); });

    // Poll the endpoint while the server is saturated.
    bool sawClassSeries = false;
    int fetched = 0;
    for (int i = 0; i < 30 && client.joinable(); ++i) {
        const StatszResult probe =
            fetchStatsz("127.0.0.1", server.port(), 2000.0);
        ASSERT_TRUE(probe.ok) << probe.error;
        EXPECT_LT(probe.elapsedMs, 100.0);
        EXPECT_NE(probe.text.find("tpc_up"), std::string::npos);
        if (probe.text.find("tpc_completions_total") != std::string::npos &&
            probe.text.find("quantile=\"0.999\"") != std::string::npos)
            sawClassSeries = true;
        ++fetched;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    client.join();
    server.stop();
    EXPECT_TRUE(sawClassSeries);

    EXPECT_EQ(result.completed, 400u);
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(trace.droppedEvents(), 0u);
    EXPECT_GE(server.rpc().stats().statszServed,
              static_cast<std::uint64_t>(fetched));
    // Stats probes must not perturb the request accounting.
    EXPECT_EQ(server.rpc().stats().requestsReceived, 400u);

    const obs::StageSnapshot snap = stageStats.snapshot();
    std::uint64_t completions = 0;
    std::uint64_t tail = 0;
    std::uint64_t causeSum = 0;
    for (const obs::StageClassSnapshot& cls : snap.classes) {
        completions += cls.completions;
        tail += cls.tail;
        for (std::size_t c = 1; c < obs::kTailCauseCount; ++c)
            if (static_cast<obs::TailCause>(c) != obs::TailCause::kShed &&
                static_cast<obs::TailCause>(c) !=
                    obs::TailCause::kCancelled)
                causeSum += cls.causes[c];
        EXPECT_EQ(
            cls.causes[static_cast<std::size_t>(obs::TailCause::kShed)],
            0u);
    }
    EXPECT_EQ(completions, 400u);
    EXPECT_EQ(causeSum, tail);

    std::uint64_t expectedTail = 0;
    for (const server::ThreadedOutcome& outcome :
         server.threaded().outcomes())
        if (outcome.targetMs > 0.0 && outcome.responseMs > outcome.targetMs)
            ++expectedTail;
    EXPECT_EQ(tail, expectedTail);
    EXPECT_GT(tail, 0u) << "saturation should push responses over target";
}

TEST(Statsz, ShedRequestsLandUnderShedCause)
{
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 2;
    serverConfig.hwContexts = 2;

    LoopbackServer server(serverConfig, AdmissionLimits{16, 8, {}},
                          /*taskMs=*/5.0, /*numTasks=*/1);
    obs::StageStatsCollector stageStats({}, 8);
    obs::StatsSampler sampler(stageStats, /*intervalMs=*/20.0);
    installStatsz(server, stageStats, sampler);

    LoadGenConfig loadConfig;
    loadConfig.port = server.port();
    loadConfig.qps = 2000.0;
    loadConfig.numRequests = 600;
    loadConfig.connections = 4;
    loadConfig.seed = 19;
    LoadGenResult result;
    std::thread client([&] { result = runLoadGen(loadConfig); });
    for (int i = 0; i < 10 && client.joinable(); ++i) {
        const StatszResult probe =
            fetchStatsz("127.0.0.1", server.port(), 2000.0);
        ASSERT_TRUE(probe.ok) << probe.error;
        EXPECT_LT(probe.elapsedMs, 100.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    client.join();
    server.stop();

    ASSERT_GT(result.shed, 0u);
    const obs::StageSnapshot snap = stageStats.snapshot();
    std::uint64_t shedCause = 0;
    for (const obs::StageClassSnapshot& cls : snap.classes)
        shedCause +=
            cls.causes[static_cast<std::size_t>(obs::TailCause::kShed)];
    EXPECT_EQ(shedCause, server.rpc().admission().shed());
    EXPECT_EQ(shedCause, result.shed);
}

TEST(Statsz, NoProviderAnswersWithError)
{
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 2;
    LoopbackServer server(serverConfig, AdmissionLimits{64, 64, {}},
                          /*taskMs=*/0.1, /*numTasks=*/1);
    const StatszResult probe =
        fetchStatsz("127.0.0.1", server.port(), 2000.0);
    EXPECT_FALSE(probe.ok);
    EXPECT_FALSE(probe.error.empty());
}

TEST(Statsz, FetchFailsFastWhenNothingListens)
{
    // Port 1 on loopback: nothing listens; the deadline must hold.
    const StatszResult probe = fetchStatsz("127.0.0.1", 1, 200.0);
    EXPECT_FALSE(probe.ok);
    EXPECT_LT(probe.elapsedMs, 1000.0);
}

TEST(Tracez, LiveFetchReturnsParseableRetainedTraces)
{
    // End-to-end /tracez: traced load against the loopback server, then
    // fetch the endpoint and parse the Chrome-trace JSON back into
    // spans. The default 1-in-16 baseline sample guarantees retained
    // traces even when every request lands on target.
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 4;
    serverConfig.hwContexts = 4;

    // Declared before the server so it outlives the serving threads.
    obs::SpanCollectorConfig spanConfig;
    spanConfig.serverId = 4100;
    spanConfig.role = "shard";
    obs::SpanCollector spans(4, spanConfig);

    LoopbackServer server(serverConfig, AdmissionLimits{10000, 10000, {}},
                          /*taskMs=*/0.05, /*numTasks=*/4);
    server.threaded().attachSpans(&spans);
    server.rpc().setTracezProvider(
        [&spans] { return spans.renderTracez(); });

    LoadGenConfig loadConfig;
    loadConfig.port = server.port();
    loadConfig.qps = 1000.0;
    loadConfig.numRequests = 200;
    loadConfig.connections = 2;
    loadConfig.seed = 23;
    const LoadGenResult result = runLoadGen(loadConfig);
    EXPECT_EQ(result.completed, 200u);

    const StatszResult probe =
        fetchTracez("127.0.0.1", server.port(), 2000.0);
    ASSERT_TRUE(probe.ok) << probe.error;

    std::vector<obs::Span> parsed;
    std::string error;
    ASSERT_TRUE(obs::parseTracezSpans(probe.text, &parsed, &error))
        << error;
    ASSERT_FALSE(parsed.empty());
    for (const obs::Span& span : parsed) {
        EXPECT_NE(span.traceId, 0u);
        EXPECT_EQ(span.serverId, 4100);
        EXPECT_STREQ(span.role, "shard");
    }
    // Every retained trace has a server root span parented by the
    // client's span (the loadgen stamped parentSpanId on the frame).
    bool sawRoot = false;
    for (const obs::Span& span : parsed)
        sawRoot = sawRoot || span.kind == obs::SpanKind::kServer;
    EXPECT_TRUE(sawRoot);

    // Counter checks only after the drain: the last request's
    // finishTrace runs after the postamble that answered the client,
    // so loadgen returning does not mean the counters are final.
    server.stop();
    server.threaded().attachSpans(nullptr);
    EXPECT_EQ(spans.finishedTraces(), 200u);
    // Tail retention held: on-target load retains only the baseline
    // sample, i.e. >= 90% of traces were dropped.
    EXPECT_LE(spans.retainedTraces() - spans.overTargetRetained(),
              spans.finishedTraces() / 10);
    EXPECT_EQ(server.rpc().stats().tracezServed, 1u);
}

TEST(Tracez, NoProviderAnswersWithError)
{
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 2;
    LoopbackServer server(serverConfig, AdmissionLimits{64, 64, {}},
                          /*taskMs=*/0.1, /*numTasks=*/1);
    const StatszResult probe =
        fetchTracez("127.0.0.1", server.port(), 2000.0);
    EXPECT_FALSE(probe.ok);
    EXPECT_FALSE(probe.error.empty());
}

/** Hand-encodes a version-1 (24-byte header) request frame. */
std::vector<std::uint8_t>
encodeV1Request(std::uint64_t requestId,
                const std::vector<std::uint8_t>& payload)
{
    std::vector<std::uint8_t> wire;
    for (int i = 0; i < 4; ++i)
        wire.push_back(static_cast<std::uint8_t>(kMagic >> (8 * i)));
    wire.push_back(1); // version
    wire.push_back(static_cast<std::uint8_t>(FrameType::kRequest));
    wire.push_back(0); // cls
    wire.push_back(0); // status
    for (int i = 0; i < 8; ++i)
        wire.push_back(static_cast<std::uint8_t>(requestId >> (8 * i)));
    const std::uint32_t length =
        static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        wire.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
    for (int i = 0; i < 4; ++i)
        wire.push_back(0); // reserved coverage bytes
    wire.insert(wire.end(), payload.begin(), payload.end());
    return wire;
}

TEST(RpcServer, AcceptsAndAnswersVersionOneFrames)
{
    // Backward-compatibility regression for the version-2 header bump:
    // a pre-trace-context client speaking 24-byte headers must still be
    // admitted and answered — with the request treated as untraced —
    // not dropped as a protocol error.
    server::ThreadedServerConfig serverConfig;
    serverConfig.numWorkers = 2;
    LoopbackServer server(serverConfig, AdmissionLimits{64, 64, {}},
                          /*taskMs=*/0.05, /*numTasks=*/2);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);

    std::vector<std::uint8_t> payload;
    appendU64(payload, 7); // makeJob checks payload echoes the id
    const std::vector<std::uint8_t> wire = encodeV1Request(7, payload);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));

    FrameReader reader;
    Frame response;
    bool got = false;
    std::uint8_t buffer[512];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!got && std::chrono::steady_clock::now() < deadline) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
            break;
        reader.append(buffer, static_cast<std::size_t>(n));
        got = reader.next(&response);
    }
    ::close(fd);

    ASSERT_TRUE(got) << reader.error();
    EXPECT_EQ(response.type, FrameType::kResponse);
    EXPECT_EQ(response.status, FrameStatus::kOk);
    EXPECT_EQ(response.requestId, 7u);
    // The server saw no trace context and echoes none.
    EXPECT_EQ(response.traceId, 0u);
    EXPECT_EQ(response.parentSpanId, 0u);
    std::uint64_t value = 0;
    ASSERT_TRUE(readU64(response.payload, 0, &value));
    EXPECT_EQ(value, 15u); // seq * 2 + 1

    server.stop();
    EXPECT_EQ(server.rpc().stats().protocolErrors, 0u);
    EXPECT_EQ(server.echoMismatches(), 0u);
}

TEST(ThreadedServerDrain, ShutdownFinishesInFlightAndRejectsNewWork)
{
    // Regression for the graceful-drain path RpcServer::run() relies on:
    // shutdown() must finish every submitted request, then refuse more.
    policy::SequentialPolicy sequential;
    server::ThreadedServerConfig config;
    config.numWorkers = 2;
    server::ThreadedServer threaded(config, sequential);

    std::atomic<int> completed{0};
    for (int i = 0; i < 12; ++i) {
        server::ThreadedJob job;
        job.numTasks = 2;
        job.task = [](int) { busyWaitMs(1.0); };
        job.postamble = [&completed] { completed.fetch_add(1); };
        threaded.submit(std::move(job));
    }
    EXPECT_TRUE(threaded.accepting());
    threaded.shutdown(); // In-flight work still running when this starts.
    EXPECT_EQ(completed.load(), 12);
    EXPECT_EQ(threaded.outcomes().size(), 12u);
    EXPECT_EQ(threaded.inFlightCount(), 0);

    EXPECT_FALSE(threaded.accepting());
    server::ThreadedJob late;
    late.numTasks = 1;
    late.task = [](int) {};
    EXPECT_FALSE(threaded.trySubmit(std::move(late)));
    EXPECT_EQ(threaded.outcomes().size(), 12u);
}

} // namespace
} // namespace tpc::net
