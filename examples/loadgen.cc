/**
 * @file
 * Standalone open-loop load generator for the RPC serving layer.
 *
 * Drives Poisson arrivals at a target QPS over N persistent connections
 * against a server started with --listen (search_server, finance_server).
 * Arrivals never block on slow responses, so offered load stays at the
 * configured rate even when the server backs up — the measurement
 * discipline of the paper's Section 4.1 (see DESIGN.md).
 *
 *   ./build/examples/loadgen --port <port> [--host=127.0.0.1]
 *       [--qps=100] [--rate-ramp=start:end] [--duration-s=2 | --requests=N]
 *       [--connections=4] [--payload-bytes=8] [--seed=1]
 *       [--csv-out=results/loadgen.csv] [--target-ms=T]
 *       [--trace-csv-out=PATH] [--tracez-out=PATH] [--warmup-ms=W]
 *       [--budget-ms=B] [--timeout-ms=T] [--retry] [--naive-retries]
 *       [--max-attempts=3] [--tenants=id:name:weight,...]
 *
 * Overload-robustness knobs: --budget-ms stamps an end-to-end deadline
 * budget on every request (header v3; each hop subtracts its elapsed
 * time, and an expired request is rejected at the earliest hop).
 * --timeout-ms bounds the client-side wait per attempt. --retry enables
 * disciplined retries of BUSY responses — capped exponential backoff with
 * jitter, honoring the server's pushed retryAfterMs hint, funded by a
 * token-bucket retry budget (retries <= ~10% of successes) and the
 * remaining deadline budget. --naive-retries is the storm baseline:
 * retry BUSY *and* timeouts at a short fixed delay with no budget at
 * all. --tenants splits traffic into a weighted mix, stamps tenant ids
 * on frames, and appends one CSV row per tenant.
 *
 * --warmup-ms excludes responses to requests scheduled inside the first
 * W ms from the percentile summary and over-target reporting (they
 * still count as completions), so steady-state tail numbers aren't
 * polluted by cold-start effects.
 *
 * --rate-ramp=start:end replaces the constant rate with a linear ramp
 * from start to end QPS over --duration-s (exact inhomogeneous Poisson
 * via thinning) — non-stationary offered load for the adaptation demos.
 *
 * Every request carries a trace context (trace id derived from seed and
 * sequence number), so server-side /tracez spans join the client's view.
 * --target-ms sets the client-side latency target: responses over it are
 * listed per-request in --trace-csv-out (seq, trace_id, response_ms),
 * and the client's own root spans for those requests are tail-retained
 * and written as Chrome-trace JSON to --tracez-out — mergeable with the
 * servers' /tracez output via `statsz --tracez --trace-file=...`.
 *
 * Exits nonzero when no request completed (so CI smoke tests can assert
 * a non-empty latency summary just from the exit code).
 *
 * Ctrl-C mid-run stops the arrival process, drains outstanding
 * responses, and still writes the summary (and --csv-out) for the
 * requests that were sent — the same graceful-drain discipline the
 * servers follow.
 */
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "net/loadgen.h"
#include "obs/span_collector.h"
#include "util/args.h"
#include "util/table_printer.h"

namespace {

std::atomic<bool> gStop{false};

void
onSignal(int)
{
    gStop.store(true, std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace tpc;
    const util::ArgParser args(argc, argv,
                               {"host", "port", "qps", "rate-ramp",
                                "duration-s", "requests", "connections",
                                "payload-bytes", "seed", "csv-out",
                                "target-ms", "trace-csv-out", "tracez-out",
                                "warmup-ms", "budget-ms", "timeout-ms",
                                "retry", "naive-retries", "max-attempts",
                                "tenants"});

    net::LoadGenConfig config;
    config.host = args.getString("host", "127.0.0.1");
    config.port = static_cast<std::uint16_t>(args.getInt("port", 0));
    if (config.port == 0) {
        std::fprintf(stderr, "loadgen: --port is required\n");
        return 2;
    }
    config.qps = args.getDouble("qps", 100.0);
    config.durationMs = args.getDouble("duration-s", 2.0) * 1000.0;
    const std::string rateRamp = args.getString("rate-ramp", "");
    if (!rateRamp.empty()) {
        const std::size_t colon = rateRamp.find(':');
        double start = 0.0;
        double end = 0.0;
        if (colon != std::string::npos) {
            start = std::atof(rateRamp.substr(0, colon).c_str());
            end = std::atof(rateRamp.substr(colon + 1).c_str());
        }
        if (start <= 0.0 || end <= 0.0) {
            std::fprintf(stderr,
                         "loadgen: --rate-ramp wants start:end in QPS, "
                         "both > 0 (got \"%s\")\n",
                         rateRamp.c_str());
            return 2;
        }
        config.qps = start;
        config.qpsEnd = end;
    }
    config.numRequests =
        static_cast<std::uint64_t>(args.getInt("requests", 0));
    config.connections = static_cast<int>(args.getInt("connections", 4));
    config.payloadBytes =
        static_cast<std::size_t>(args.getInt("payload-bytes", 8));
    config.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string csvOut = args.getString("csv-out", "");
    const std::string traceCsvOut = args.getString("trace-csv-out", "");
    const std::string tracezOut = args.getString("tracez-out", "");
    config.targetMs = args.getDouble("target-ms", 0.0);
    config.warmupMs = args.getDouble("warmup-ms", 0.0);
    config.budgetMs = args.getDouble("budget-ms", 0.0);
    config.timeoutMs = args.getDouble("timeout-ms", 0.0);
    config.naiveRetries = args.has("naive-retries");
    config.retryEnabled = args.has("retry") || config.naiveRetries;
    config.maxAttempts = static_cast<int>(args.getInt("max-attempts", 3));
    const std::string tenantSpec = args.getString("tenants", "");
    if (!tenantSpec.empty() &&
        !overload::parseTenantQuotas(tenantSpec, &config.tenants)) {
        std::fprintf(stderr, "loadgen: bad --tenants: %s\n",
                     tenantSpec.c_str());
        return 2;
    }

    // Client-side span collection: the loadgen is "pid 1" in the
    // assembled timeline, its root spans framing the server tiers'.
    obs::SpanCollectorConfig spanConfig;
    spanConfig.serverId = 1;
    spanConfig.role = "loadgen";
    obs::SpanCollector spans(1, spanConfig);
    if (config.targetMs > 0.0 || !tracezOut.empty())
        config.spans = &spans;

    config.stopFlag = &gStop;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (config.qpsEnd > 0.0)
        std::printf("loadgen: %s:%u, %.0f -> %.0f qps ramp over %d "
                    "connections (open loop)\n",
                    config.host.c_str(), config.port, config.qps,
                    config.qpsEnd, config.connections);
    else
        std::printf("loadgen: %s:%u, %.0f qps over %d connections "
                    "(open loop)\n",
                    config.host.c_str(), config.port, config.qps,
                    config.connections);
    const net::LoadGenResult result = net::runLoadGen(config);
    if (gStop.load(std::memory_order_relaxed))
        std::printf("loadgen: interrupted; reporting the %llu requests "
                    "already sent\n",
                    static_cast<unsigned long long>(result.sent));

    const stats::LatencySummary summary = result.summary();
    util::TablePrinter table("loadgen: open-loop client summary");
    table.setHeader({"sent", "ok", "degraded", "shed", "err", "cancelled",
                     "ddl_exceeded", "timeouts", "retries", "failed",
                     "unanswered", "qps", "p50", "p99", "p999", "max"});
    table.addRow({std::to_string(result.sent),
                  std::to_string(result.completed),
                  std::to_string(result.degraded),
                  std::to_string(result.shed),
                  std::to_string(result.errors),
                  std::to_string(result.cancelled),
                  std::to_string(result.deadlineExceeded),
                  std::to_string(result.timeouts),
                  std::to_string(result.retries),
                  std::to_string(result.failed),
                  std::to_string(result.unanswered),
                  util::TablePrinter::fmt(result.achievedQps, 1),
                  util::TablePrinter::fmt(summary.p50, 2),
                  util::TablePrinter::fmt(summary.p99, 2),
                  util::TablePrinter::fmt(summary.p999, 2),
                  util::TablePrinter::fmt(summary.max, 2)});
    table.print();
    if (result.retries > 0 || result.retriesSuppressed > 0)
        std::printf("retries: %llu issued, %llu suppressed by the retry "
                    "budget\n",
                    static_cast<unsigned long long>(result.retries),
                    static_cast<unsigned long long>(
                        result.retriesSuppressed));
    for (const net::TenantLoadGenResult& t : result.perTenant) {
        const stats::LatencySummary ts = t.summary();
        std::printf("tenant %s (id %u, weight %.2f): sent %llu ok %llu "
                    "shed %llu timeouts %llu retries %llu p99 %.2f ms\n",
                    t.name.c_str(), t.tenant, t.weight,
                    static_cast<unsigned long long>(t.sent),
                    static_cast<unsigned long long>(t.completed),
                    static_cast<unsigned long long>(t.shed),
                    static_cast<unsigned long long>(t.timeouts),
                    static_cast<unsigned long long>(t.retries), ts.p99);
    }
    if (result.connectionsLost > 0)
        std::printf("connections lost mid-run: %llu (%llu reconnected)\n",
                    static_cast<unsigned long long>(result.connectionsLost),
                    static_cast<unsigned long long>(result.reconnects));
    std::printf("latency summary (ms, from scheduled arrival): %s\n",
                summary.toString().c_str());
    std::printf("client lateness (us, send - scheduled): p50 %.1f p99 %.1f\n",
                result.lateness.percentile(0.50) * 1000.0,
                result.lateness.percentile(0.99) * 1000.0);
    if (config.warmupMs > 0.0)
        std::printf("warm-up: %llu responses inside the first %.0f ms "
                    "excluded from the summary\n",
                    static_cast<unsigned long long>(result.warmupExcluded),
                    config.warmupMs);

    if (config.targetMs > 0.0)
        std::printf("over target (%.1f ms): %zu requests; worst trace "
                    "%016llx at %.2f ms\n",
                    config.targetMs, result.overTarget.size(),
                    static_cast<unsigned long long>(
                        result.worstOverTarget().traceId),
                    result.worstOverTarget().responseMs);

    if (!csvOut.empty()) {
        net::writeLoadGenCsv(result, config, csvOut);
        std::printf("wrote %s\n", csvOut.c_str());
    }
    if (!traceCsvOut.empty()) {
        net::writeLoadGenTraceCsv(result, traceCsvOut);
        std::printf("wrote %s (%zu over-target rows)\n",
                    traceCsvOut.c_str(), result.overTarget.size());
    }
    if (!tracezOut.empty()) {
        std::ofstream out(tracezOut);
        if (!out) {
            std::fprintf(stderr, "loadgen: cannot write --tracez-out %s\n",
                         tracezOut.c_str());
            return 1;
        }
        out << spans.renderTracez();
        std::printf("wrote %s (%llu retained client traces)\n",
                    tracezOut.c_str(),
                    static_cast<unsigned long long>(spans.retainedTraces()));
    }
    return result.completed > 0 ? 0 : 1;
}
