/**
 * @file
 * Open-loop load-generator client for the RPC serving layer.
 *
 * The paper's Section 4.1 client discipline: arrivals follow a Poisson
 * process at a configured rate, and the arrival process NEVER blocks on
 * slow responses — a request whose connection is backed up is buffered
 * and timestamped at its scheduled arrival, so server-side queueing shows
 * up as client-observed latency instead of silently throttling offered
 * load (the closed-loop fallacy that hides overload). One thread drives
 * N persistent connections through non-blocking sockets; responses are
 * matched to requests by the echoed frame id.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/span_collector.h"
#include "overload/admission.h"
#include "overload/retry.h"
#include "stats/latency_recorder.h"

namespace tpc::net {

/** Settings of one load-generation run. */
struct LoadGenConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Offered load (requests per second); the start rate when ramping. */
    double qps = 100.0;
    /**
     * When > 0, the arrival rate ramps linearly from qps to this value
     * over durationMs (which must be set), then holds — non-stationary
     * offered load for the drift benches (--rate-ramp start:end). The
     * ramp is an exact inhomogeneous Poisson process (thinning), still
     * fully determined by the seed. 0 keeps the rate constant.
     */
    double qpsEnd = 0.0;
    /** Stop after this many requests (0: use durationMs instead). */
    std::uint64_t numRequests = 0;
    /** Stop sending after this much wall time (ms); used when
     *  numRequests == 0. */
    double durationMs = 2000.0;
    /** Persistent connections to spread requests over (round-robin). */
    int connections = 4;
    /** Seed of the Poisson arrival process. */
    std::uint64_t seed = 1;
    /** Request payload size; the first 8 bytes always carry the sequence
     *  number little-endian (applications key work off it). */
    std::size_t payloadBytes = 8;
    /** Request class byte copied into every frame. */
    std::uint8_t cls = 0;
    /** How long to retry the initial connects (the server may still be
     *  starting, e.g. in CI). */
    double connectTimeoutMs = 10000.0;
    /** Back-off between reconnect attempts after a connection dies
     *  mid-run (the schedule keeps running meanwhile). */
    double reconnectDelayMs = 100.0;
    /** How long to wait for outstanding responses after the last send. */
    double drainTimeoutMs = 10000.0;
    /** Optional payload customization, called after the sequence number
     *  is written; may append or rewrite bytes beyond the first 8. */
    std::function<void(std::uint64_t seq, std::vector<std::uint8_t>&)>
        payloadFn;
    /** Optional early-stop flag (set from a signal handler): once true,
     *  sending stops and the run proceeds to the normal drain, so the
     *  partial results (and their CSV) survive a Ctrl-C. */
    std::atomic<bool>* stopFlag = nullptr;
    /**
     * Emit a trace context on every request: the traceId is derived
     * deterministically from (seed, seq) so a run's ids are reproducible
     * and joinable against server-side /tracez output.
     */
    bool trace = true;
    /**
     * Client-side latency target (ms); 0 disables. Responses over the
     * target are reported in LoadGenResult::overTarget (with their
     * traceId) and drive tail-based retention of client spans.
     */
    double targetMs = 0.0;
    /** Optional client-span collector (borrowed; role "loadgen"). When
     *  set, every completed response records a kClient root span and
     *  finishes the trace against targetMs. */
    obs::SpanCollector* spans = nullptr;
    /**
     * Warm-up window (ms of scheduled-arrival time); responses to
     * requests that arrived inside it still count as completions but are
     * excluded from the latency percentiles and over-target reporting,
     * so cold caches, first-touch page faults and JIT'd connection state
     * don't pollute steady-state tail numbers. 0 keeps every response.
     */
    double warmupMs = 0.0;
    /**
     * End-to-end deadline budget per request (ms); 0 disables. Every
     * (re)send stamps the *remaining* budget on the frame (header v3),
     * and a request still unanswered when its budget runs out counts as
     * a timeout (the eventual late response is discarded).
     */
    double budgetMs = 0.0;
    /** Client-side response timeout (ms); 0 falls back to budgetMs
     *  (and with both 0, requests never time out client-side). */
    double timeoutMs = 0.0;
    /** Retry shed/timed-out requests (see retry fields below). */
    bool retryEnabled = false;
    /** Total attempts per request including the first send. */
    int maxAttempts = 3;
    /** Capped-exponential-backoff shape for disciplined retries. */
    overload::BackoffConfig backoff;
    /** Token-bucket retry budget (retries <= ~earnPerSuccess x
     *  successes); ignored in naive mode. */
    overload::RetryBudgetConfig retryBudget;
    /**
     * Storm mode: retry on BUSY *and* timeout with a short fixed delay,
     * ignoring the retry budget, the server's retryAfterMs hints and the
     * remaining deadline budget — the undisciplined fleet behavior the
     * overload bench uses as its collapse baseline.
     */
    bool naiveRetries = false;
    /**
     * Traffic mix by tenant: each request is assigned a tenant id drawn
     * with probability weight/sum(weights) (deterministic from the
     * seed), stamped on the frame, and accounted separately in
     * LoadGenResult::perTenant. Empty = everything on tenant 0.
     */
    std::vector<overload::TenantQuota> tenants;
};

/** One response that exceeded LoadGenConfig::targetMs. */
struct OverTargetRequest
{
    std::uint64_t seq = 0;
    std::uint64_t traceId = 0;
    double responseMs = 0.0;
};

/** Per-tenant slice of a run (one CSV row each). */
struct TenantLoadGenResult
{
    std::uint16_t tenant = 0;
    std::string name;
    double weight = 0.0;
    stats::LatencyRecorder latency;
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t unanswered = 0;

    stats::LatencySummary summary() const { return latency.summary(); }
};

/** Outcome of one load-generation run. */
struct LoadGenResult
{
    /** Response time of each OK response (ms), measured from the
     *  *scheduled* arrival — open-loop convention. */
    stats::LatencyRecorder latency;
    /** Client lateness of each first send (ms): actual send time minus
     *  scheduled arrival. Part of every `latency` sample, so it must stay
     *  small for `latency` to measure the server. */
    stats::LatencyRecorder lateness;
    /** Requests handed to the arrival process. */
    std::uint64_t sent = 0;
    /** OK responses received. */
    std::uint64_t completed = 0;
    /** OK responses whose coverage fields show a partial (degraded)
     *  shard merge — a subset of `completed`. */
    std::uint64_t degraded = 0;
    /** BUSY responses (shed by admission control). */
    std::uint64_t shed = 0;
    /** Error-status responses. */
    std::uint64_t errors = 0;
    /** kCancelled responses (server-side deadline cancellations). */
    std::uint64_t cancelled = 0;
    /** kDeadlineExceeded responses (the end-to-end budget ran out at
     *  some hop before a worker ever picked the request up). */
    std::uint64_t deadlineExceeded = 0;
    /** Requests that hit the client-side timeout/budget with no
     *  response (their late responses, if any, are discarded). */
    std::uint64_t timeouts = 0;
    /** Re-sends issued by the retry machinery (not counted in sent). */
    std::uint64_t retries = 0;
    /** Retries the token-bucket budget refused to fund. */
    std::uint64_t retriesSuppressed = 0;
    /**
     * Requests that failed because their connection died mid-stream
     * (outstanding on a dropped connection, or scheduled while every
     * connection was down). The open-loop schedule keeps running; these
     * are counted, not silently converted into reduced offered load.
     */
    std::uint64_t failed = 0;
    /** Requests never answered (lost connection or drain timeout). */
    std::uint64_t unanswered = 0;
    /** OK responses excluded from `latency` because their request
     *  arrived inside LoadGenConfig::warmupMs. */
    std::uint64_t warmupExcluded = 0;
    /** Connections that dropped mid-run. */
    std::uint64_t connectionsLost = 0;
    /** Successful mid-run reconnects after a drop. */
    std::uint64_t reconnects = 0;
    /** Wall time from first scheduled arrival to loop exit (ms). */
    double elapsedMs = 0.0;
    /** sent / elapsed — sanity check against the configured QPS. */
    double achievedQps = 0.0;
    /** Completed responses over LoadGenConfig::targetMs, with their
     *  trace ids (empty when no target was set). */
    std::vector<OverTargetRequest> overTarget;
    /** Per-tenant breakdown, in LoadGenConfig::tenants order (empty
     *  when no tenants were configured). */
    std::vector<TenantLoadGenResult> perTenant;

    /** The slowest over-target request (all-zero when none). */
    OverTargetRequest worstOverTarget() const
    {
        OverTargetRequest worst;
        for (const OverTargetRequest& req : overTarget)
            if (req.responseMs > worst.responseMs)
                worst = req;
        return worst;
    }

    /** Percentile bundle over the OK responses. */
    stats::LatencySummary summary() const { return latency.summary(); }
};

/**
 * Runs the open-loop client to completion. Fatal when no connection can
 * be established within connectTimeoutMs.
 */
LoadGenResult runLoadGen(const LoadGenConfig& config);

/** The exact writeLoadGenCsv column schema, in order (tested). */
std::vector<std::string> loadGenCsvHeader();

/** Writes the summary CSV: an "all" totals row (tenant column "all"),
 *  then one row per configured tenant. Columns are loadGenCsvHeader()
 *  (sent/completed/shed/retries/timeouts/... + the LatencySummary
 *  columns + the worst over-target trace_id + tenant identity). */
void writeLoadGenCsv(const LoadGenResult& result, const LoadGenConfig& config,
                     const std::string& path);

/** Writes one row per over-target response (seq, trace_id as 16-digit
 *  hex, response_ms) so client-side latency rows join against /tracez
 *  output by trace id. */
void writeLoadGenTraceCsv(const LoadGenResult& result,
                          const std::string& path);

} // namespace tpc::net
