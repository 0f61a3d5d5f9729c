#include "net/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>

#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "overload/budget.h"
#include "util/csv.h"
#include "util/distributions.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tpc::net {
namespace {

using Clock = std::chrono::steady_clock;

/** One persistent client connection. */
struct ClientConn
{
    FdGuard fd;
    FrameReader reader;
    std::vector<std::uint8_t> writeBuffer;
    std::size_t writeOffset = 0;
    bool wantWrite = false;
    bool alive = false;
    /** A reconnect dial is waiting for its writable event. */
    bool connecting = false;
    /** Earliest time a dead connection may re-dial. */
    double retryAtMs = 0.0;
};

/** Bookkeeping of one unanswered request. */
struct Pending
{
    /** Scheduled arrival time (ms), the open-loop latency base — the
     *  original arrival even on a retry, so retried latency includes
     *  every failed attempt and backoff wait. */
    double arrivalMs = 0.0;
    /** Connection the request went out on. */
    std::size_t conn = 0;
    /** Trace context the request carried (0 when tracing is off). */
    std::uint64_t traceId = 0;
    std::uint64_t clientSpanId = 0;
    /** Application sequence number (payload bytes 0-8). */
    std::uint64_t seq = 0;
    /** Index into the per-tenant slices (npos when untenanted). */
    std::size_t tenantIdx = static_cast<std::size_t>(-1);
    /** 1-based attempt number (1 = first send). */
    int attempt = 1;
};

/** A scheduled retry, waiting for its backoff delay. */
struct RetryItem
{
    std::uint64_t seq = 0;
    std::size_t tenantIdx = static_cast<std::size_t>(-1);
    double arrivalMs = 0.0;
    std::uint64_t traceId = 0;
    std::uint64_t clientSpanId = 0;
    /** Attempt number of the re-send. */
    int attempt = 2;
};

constexpr std::size_t kNoTenant = static_cast<std::size_t>(-1);

/**
 * Retries live in a disjoint wire-id range: first attempts keep
 * wireId == seq (applications key work off the payload sequence and may
 * assert the two match), while re-sends draw fresh ids from here so a
 * late response to an abandoned attempt can never be mistaken for the
 * answer to its retry.
 */
constexpr std::uint64_t kRetryWireIdBase = 1ull << 62;

double
msSince(Clock::time_point epoch)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
        .count();
}

/** Connects all sockets, retrying until the timeout (the server may still
 *  be binding its port, e.g. in the CI smoke test). */
void
connectAll(const LoadGenConfig& config, std::vector<ClientConn>& conns)
{
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               config.connectTimeoutMs));
    for (ClientConn& conn : conns) {
        for (;;) {
            std::string error;
            const int fd = connectTcp(config.host, config.port, &error);
            if (fd >= 0) {
                // Wait for the non-blocking connect to resolve.
                Poller poller;
                poller.add(fd, kPollOut);
                std::vector<PollEvent> events;
                poller.wait(events, 250);
                if (!events.empty() && connectSucceeded(fd)) {
                    conn.fd.reset(fd);
                    conn.reader = FrameReader();
                    conn.alive = true;
                    break;
                }
                ::close(fd);
            }
            if (Clock::now() >= deadline)
                util::fatal("loadgen: cannot connect to " + config.host +
                            ":" + std::to_string(config.port) +
                            (error.empty() ? "" : (": " + error)));
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }
}

/** Flushes buffered frames; returns false when the connection died. */
bool
flushConn(ClientConn& conn, Poller& poller)
{
    while (conn.writeOffset < conn.writeBuffer.size()) {
        std::size_t n = 0;
        const IoStatus status = writeSome(
            conn.fd.fd(), conn.writeBuffer.data() + conn.writeOffset,
            conn.writeBuffer.size() - conn.writeOffset, &n);
        if (status == IoStatus::kOk && n > 0) {
            conn.writeOffset += n;
            continue;
        }
        if (status == IoStatus::kWouldBlock || n == 0) {
            if (!conn.wantWrite) {
                conn.wantWrite = true;
                poller.modify(conn.fd.fd(), kPollIn | kPollOut);
            }
            return true;
        }
        return false;
    }
    conn.writeBuffer.clear();
    conn.writeOffset = 0;
    if (conn.wantWrite) {
        conn.wantWrite = false;
        poller.modify(conn.fd.fd(), kPollIn);
    }
    return true;
}

} // namespace

LoadGenResult
runLoadGen(const LoadGenConfig& config)
{
    TPC_CHECK(config.qps > 0.0);
    TPC_CHECK(config.connections >= 1);
    TPC_CHECK(config.payloadBytes >= 8);
    TPC_CHECK(config.maxAttempts >= 1);

    LoadGenResult result;

    // Per-tenant result slices plus cumulative weights for the
    // deterministic mix draw (one Rng stream per concern, so enabling
    // tenants never perturbs the arrival process).
    std::vector<double> tenantCum;
    double tenantTotalWeight = 0.0;
    for (const overload::TenantQuota& quota : config.tenants) {
        TenantLoadGenResult tenantSlice;
        tenantSlice.tenant = quota.tenant;
        tenantSlice.name = quota.name;
        tenantSlice.weight = quota.weight;
        result.perTenant.push_back(std::move(tenantSlice));
        tenantTotalWeight += std::max(0.0, quota.weight);
        tenantCum.push_back(tenantTotalWeight);
    }
    util::Rng tenantRng(config.seed ^ 0x7E4A47ull);
    auto pickTenant = [&]() -> std::size_t {
        if (tenantCum.empty() || tenantTotalWeight <= 0.0)
            return kNoTenant;
        const double u = tenantRng.uniform() * tenantTotalWeight;
        for (std::size_t i = 0; i < tenantCum.size(); ++i)
            if (u < tenantCum[i])
                return i;
        return tenantCum.size() - 1;
    };
    auto slice = [&](std::size_t idx) -> TenantLoadGenResult* {
        return idx < result.perTenant.size() ? &result.perTenant[idx]
                                             : nullptr;
    };
    auto tenantIdFor = [&](std::size_t idx) -> std::uint16_t {
        return idx < config.tenants.size() ? config.tenants[idx].tenant : 0;
    };

    overload::RetryBudget retryBudget(config.retryBudget);
    const overload::Backoff backoffPolicy(config.backoff);
    util::Rng retryRng(config.seed ^ 0xB0FFull);
    /** Scheduled re-sends, keyed by their due time (ms since epoch). */
    std::multimap<double, RetryItem> retryQueue;
    /** Client-side timeout deadlines, keyed by expiry (ms since epoch);
     *  entries whose wire id is already answered are skipped lazily. */
    std::multimap<double, std::uint64_t> timeoutQueue;
    std::uint64_t nextRetryWireId = kRetryWireIdBase;

    std::vector<ClientConn> conns(
        static_cast<std::size_t>(config.connections));
    connectAll(config, conns);

    Poller poller;
    for (const ClientConn& conn : conns)
        poller.add(conn.fd.fd(), kPollIn);

    // Constant-rate arrivals by default; an exact inhomogeneous Poisson
    // ramp (qps -> qpsEnd over durationMs) when --rate-ramp asked for a
    // non-stationary run.
    const bool ramping = config.qpsEnd > 0.0;
    if (ramping)
        TPC_CHECK_MSG(config.durationMs > 0.0,
                      "rate ramp needs a duration to ramp over");
    util::PoissonProcess flatArrivals(config.qps, util::Rng(config.seed));
    util::RampedPoissonProcess rampArrivals(
        config.qps, ramping ? config.qpsEnd : config.qps,
        config.durationMs > 0.0 ? config.durationMs : 1.0,
        util::Rng(config.seed));
    auto nextArrival = [&]() {
        return ramping ? rampArrivals.nextArrivalMs()
                       : flatArrivals.nextArrivalMs();
    };
    /** Unanswered requests keyed by wire id. */
    std::map<std::uint64_t, Pending> outstanding;

    const auto epoch = Clock::now();
    double nextArrivalMs = nextArrival();
    std::uint64_t seq = 0;
    bool sendingDone = false;
    double sendingDoneAtMs = 0.0;
    std::size_t nextConn = 0;
    std::vector<PollEvent> events;
    std::uint8_t readBuffer[16384];

    auto doneSending = [&](double nowMs) {
        if (config.numRequests > 0)
            return seq >= config.numRequests;
        return nowMs >= config.durationMs;
    };

    // A dead connection fails its outstanding requests (they can never
    // be answered on this stream) and is scheduled for a reconnect; the
    // arrival process is never throttled by it.
    auto failConn = [&](std::size_t idx, double nowMs) {
        ClientConn& conn = conns[idx];
        if (conn.fd.valid()) {
            poller.remove(conn.fd.fd());
            conn.fd.reset();
        }
        if (conn.alive)
            ++result.connectionsLost;
        conn.alive = false;
        conn.connecting = false;
        conn.wantWrite = false;
        conn.writeBuffer.clear();
        conn.writeOffset = 0;
        conn.reader = FrameReader();
        conn.retryAtMs = nowMs + config.reconnectDelayMs;
        for (auto it = outstanding.begin(); it != outstanding.end();) {
            if (it->second.conn == idx) {
                ++result.failed;
                if (TenantLoadGenResult* t = slice(it->second.tenantIdx))
                    ++t->failed;
                it = outstanding.erase(it);
            } else {
                ++it;
            }
        }
    };

    auto tryReconnect = [&](std::size_t idx, double nowMs) {
        ClientConn& conn = conns[idx];
        if (conn.alive || conn.connecting || nowMs < conn.retryAtMs)
            return;
        std::string error;
        const int fd = connectTcp(config.host, config.port, &error);
        if (fd < 0) {
            conn.retryAtMs = nowMs + config.reconnectDelayMs;
            return;
        }
        conn.fd.reset(fd);
        conn.connecting = true;
        conn.reader = FrameReader();
        poller.add(fd, kPollOut);
    };

    auto pickConn = [&]() -> std::size_t {
        std::size_t attempts = 0;
        while (!conns[nextConn].alive && attempts < conns.size()) {
            nextConn = (nextConn + 1) % conns.size();
            ++attempts;
        }
        if (!conns[nextConn].alive)
            return conns.size();
        const std::size_t idx = nextConn;
        nextConn = (nextConn + 1) % conns.size();
        return idx;
    };

    // Arms the client-side give-up clock for one attempt: the per-attempt
    // timeout and/or the end-to-end budget (which is anchored at the
    // *scheduled* arrival, so retries inherit the original allowance).
    auto scheduleTimeout = [&](std::uint64_t wireId, const Pending& p,
                               double nowMs) {
        double dueMs = std::numeric_limits<double>::infinity();
        if (config.timeoutMs > 0.0)
            dueMs = nowMs + config.timeoutMs;
        if (config.budgetMs > 0.0)
            dueMs = std::min(dueMs, p.arrivalMs + config.budgetMs);
        if (std::isfinite(dueMs))
            timeoutQueue.emplace(dueMs, wireId);
    };

    // Encodes and sends one attempt (first send or re-send). Returns
    // false when every connection is down; the caller accounts for it.
    auto sendAttempt = [&](std::uint64_t wireId, const Pending& p,
                           double nowMs) -> bool {
        const std::size_t connIdx = pickConn();
        if (connIdx == conns.size())
            return false;
        ClientConn& conn = conns[connIdx];
        Frame frame;
        frame.type = FrameType::kRequest;
        frame.cls = config.cls;
        frame.requestId = wireId;
        frame.tenant = tenantIdFor(p.tenantIdx);
        if (config.budgetMs > 0.0) {
            // Stamp the *remaining* allowance; an already-exhausted
            // budget still goes out as the minimum stampable value so
            // the server's earliest-hop rejection (not a silent client
            // drop) is what retires it.
            const double remainingMs =
                p.arrivalMs + config.budgetMs - nowMs;
            frame.budgetUs = std::max<std::uint64_t>(
                overload::msToUs(remainingMs), 1);
        }
        if (p.traceId != 0) {
            frame.traceId = p.traceId;
            frame.parentSpanId = p.clientSpanId;
            frame.traceFlags = kTraceFlagSampled;
        }
        appendU64(frame.payload, p.seq);
        if (frame.payload.size() < config.payloadBytes)
            frame.payload.resize(config.payloadBytes, 0);
        if (config.payloadFn)
            config.payloadFn(p.seq, frame.payload);
        encodeFrame(frame, conn.writeBuffer);
        Pending stored = p;
        stored.conn = connIdx;
        outstanding[wireId] = stored;
        scheduleTimeout(wireId, stored, nowMs);
        if (!flushConn(conn, poller))
            failConn(connIdx, nowMs);
        return true;
    };

    // Decides whether a failed attempt gets another go; true means a
    // retry was scheduled and final-outcome accounting is deferred to
    // it. Disciplined mode retries only sheds (BUSY), pays a retry-
    // budget token, backs off no less than the server's pushed hint and
    // gives up when the backoff would outlive the deadline budget; naive
    // mode retries sheds *and* timeouts after a short fixed delay with
    // no gates — the storm baseline.
    auto scheduleRetry = [&](const Pending& p, double nowMs,
                             double serverHintMs, bool fromTimeout) -> bool {
        if (!config.retryEnabled || p.attempt >= config.maxAttempts)
            return false;
        double delayMs = 0.0;
        if (config.naiveRetries) {
            delayMs = config.backoff.baseDelayMs;
        } else {
            if (fromTimeout)
                return false;
            if (config.budgetMs > 0.0 &&
                nowMs + config.backoff.baseDelayMs >=
                    p.arrivalMs + config.budgetMs)
                return false;
            if (!retryBudget.tryRetry())
                return false;
            delayMs =
                backoffPolicy.delayMs(p.attempt, retryRng, serverHintMs);
            if (config.budgetMs > 0.0 &&
                nowMs + delayMs >= p.arrivalMs + config.budgetMs)
                delayMs = std::max(
                    0.0, p.arrivalMs + config.budgetMs - nowMs - 1.0);
        }
        RetryItem item;
        item.seq = p.seq;
        item.tenantIdx = p.tenantIdx;
        item.arrivalMs = p.arrivalMs;
        item.traceId = p.traceId;
        item.clientSpanId = p.clientSpanId;
        item.attempt = p.attempt + 1;
        retryQueue.emplace(nowMs + delayMs, item);
        return true;
    };

    auto processTimeouts = [&](double nowMs) {
        while (!timeoutQueue.empty() &&
               timeoutQueue.begin()->first <= nowMs) {
            const std::uint64_t wireId = timeoutQueue.begin()->second;
            timeoutQueue.erase(timeoutQueue.begin());
            const auto it = outstanding.find(wireId);
            if (it == outstanding.end())
                continue; // Answered in time.
            const Pending timedOut = it->second;
            // Abandon the attempt: a late response now finds no entry
            // and is discarded, never double-counted.
            outstanding.erase(it);
            if (scheduleRetry(timedOut, nowMs, 0.0, /*fromTimeout=*/true))
                continue;
            ++result.timeouts;
            if (TenantLoadGenResult* t = slice(timedOut.tenantIdx))
                ++t->timeouts;
        }
    };

    auto processRetries = [&](double nowMs) {
        while (!retryQueue.empty() && retryQueue.begin()->first <= nowMs) {
            const RetryItem item = retryQueue.begin()->second;
            retryQueue.erase(retryQueue.begin());
            if (config.budgetMs > 0.0 &&
                nowMs >= item.arrivalMs + config.budgetMs) {
                // The budget ran out while backing off.
                ++result.timeouts;
                if (TenantLoadGenResult* t = slice(item.tenantIdx))
                    ++t->timeouts;
                continue;
            }
            Pending pending;
            pending.arrivalMs = item.arrivalMs;
            pending.seq = item.seq;
            pending.tenantIdx = item.tenantIdx;
            pending.traceId = item.traceId;
            pending.clientSpanId = item.clientSpanId;
            pending.attempt = item.attempt;
            const std::uint64_t wireId = nextRetryWireId++;
            ++result.retries;
            if (TenantLoadGenResult* t = slice(item.tenantIdx))
                ++t->retries;
            if (!sendAttempt(wireId, pending, nowMs)) {
                ++result.failed;
                if (TenantLoadGenResult* t = slice(item.tenantIdx))
                    ++t->failed;
            }
        }
    };

    for (;;) {
        double nowMs = msSince(epoch);

        if (!sendingDone)
            for (std::size_t i = 0; i < conns.size(); ++i)
                tryReconnect(i, nowMs);

        // An interrupt ends the arrival process, not the run: the drain
        // below still collects outstanding responses so the partial
        // latency record is complete for every request actually sent.
        if (!sendingDone && config.stopFlag != nullptr &&
            config.stopFlag->load(std::memory_order_relaxed)) {
            sendingDone = true;
            sendingDoneAtMs = nowMs;
        }

        // Client-side give-up clocks and due backoffs run before sends
        // so a freed retry token or expired attempt is visible to this
        // tick's decisions.
        processTimeouts(nowMs);
        processRetries(nowMs);

        // Open-loop send: emit every arrival whose time has come, without
        // ever waiting on a response. A backed-up connection buffers the
        // frame; the request is still timestamped at its scheduled
        // arrival, so server-side delay is measured, not masked.
        while (!sendingDone && nextArrivalMs <= nowMs) {
            Pending pending;
            pending.arrivalMs = nextArrivalMs;
            pending.seq = seq;
            pending.tenantIdx = pickTenant();
            pending.attempt = 1;
            if (config.trace) {
                // The client span is the trace root; the server's span
                // parents off it. Both ids derive from (seed, seq), so
                // reruns produce identical ids.
                pending.traceId = obs::deriveTraceId(config.seed, seq);
                pending.clientSpanId =
                    obs::deriveTraceId(config.seed ^ 0xC11E57ull, seq);
            }
            ++result.sent;
            result.lateness.add(nowMs - pending.arrivalMs);
            if (TenantLoadGenResult* t = slice(pending.tenantIdx))
                ++t->sent;
            if (!sendAttempt(seq, pending, nowMs)) {
                // Every connection is down. The schedule keeps running —
                // the arrival is recorded as failed instead of silently
                // reducing the offered load; reconnects restore service.
                ++result.failed;
                if (TenantLoadGenResult* t = slice(pending.tenantIdx))
                    ++t->failed;
            }
            ++seq;
            nextArrivalMs = nextArrival();
            if (doneSending(nowMs)) {
                sendingDone = true;
                sendingDoneAtMs = nowMs;
            }
        }
        if (!sendingDone && doneSending(nowMs)) {
            sendingDone = true;
            sendingDoneAtMs = nowMs;
        }

        if (sendingDone) {
            const bool anyAlive =
                std::any_of(conns.begin(), conns.end(),
                            [](const ClientConn& c) { return c.alive; });
            if ((outstanding.empty() && retryQueue.empty()) || !anyAlive ||
                nowMs - sendingDoneAtMs >= config.drainTimeoutMs)
                break;
        }

        // Sleep until the next arrival, timeout or backoff is due
        // (capped so response reads and the drain check stay responsive).
        double untilMs = 10.0;
        if (!sendingDone)
            untilMs = std::min(untilMs, nextArrivalMs - nowMs);
        if (!timeoutQueue.empty())
            untilMs =
                std::min(untilMs, timeoutQueue.begin()->first - nowMs);
        if (!retryQueue.empty())
            untilMs = std::min(untilMs, retryQueue.begin()->first - nowMs);
        // Microsecond precision: rounding up to whole ms would send each
        // request up to 1 ms late and count that as server latency.
        const auto timeoutUs = std::chrono::microseconds(std::clamp(
            static_cast<std::int64_t>(std::ceil(untilMs * 1000.0)),
            std::int64_t{0}, std::int64_t{10000}));
        poller.wait(events, timeoutUs);

        for (const PollEvent& ev : events) {
            std::size_t connIdx = conns.size();
            for (std::size_t i = 0; i < conns.size(); ++i) {
                if ((conns[i].alive || conns[i].connecting) &&
                    conns[i].fd.valid() && conns[i].fd.fd() == ev.fd) {
                    connIdx = i;
                    break;
                }
            }
            if (connIdx == conns.size())
                continue;
            ClientConn& conn = conns[connIdx];
            nowMs = msSince(epoch);
            if (conn.connecting) {
                if ((ev.events & kPollErr) ||
                    !connectSucceeded(conn.fd.fd())) {
                    failConn(connIdx, nowMs);
                    continue;
                }
                conn.connecting = false;
                conn.alive = true;
                ++result.reconnects;
                poller.modify(conn.fd.fd(), kPollIn);
                continue;
            }
            if (ev.events & kPollErr) {
                failConn(connIdx, nowMs);
                continue;
            }
            if ((ev.events & kPollOut) && !flushConn(conn, poller)) {
                failConn(connIdx, nowMs);
                continue;
            }
            if (!conn.alive || !(ev.events & kPollIn))
                continue;

            for (;;) {
                std::size_t n = 0;
                const IoStatus status = readSome(conn.fd.fd(), readBuffer,
                                                 sizeof(readBuffer), &n);
                if (status == IoStatus::kOk) {
                    conn.reader.append(readBuffer, n);
                    continue;
                }
                if (status == IoStatus::kWouldBlock)
                    break;
                // Mid-stream disconnect: consume any complete frames
                // already buffered, then fail the rest of the stream.
                conn.alive = false;
                break;
            }
            const bool streamDied = !conn.alive;
            conn.alive = true; // Frames below still need the reader.

            Frame response;
            while (conn.reader.next(&response)) {
                const auto it = outstanding.find(response.requestId);
                if (it == outstanding.end())
                    continue; // Duplicate or unknown id; ignore.
                const double responseMs =
                    msSince(epoch) - it->second.arrivalMs;
                const Pending answered = it->second;
                outstanding.erase(it);
                TenantLoadGenResult* tenant = slice(answered.tenantIdx);
                switch (response.status) {
                case FrameStatus::kOk: {
                    ++result.completed;
                    if (tenant != nullptr)
                        ++tenant->completed;
                    retryBudget.onSuccess();
                    if (response.degraded()) {
                        ++result.degraded;
                        if (tenant != nullptr)
                            ++tenant->degraded;
                    }
                    // Warm-up gate: keyed off the *scheduled* arrival
                    // (open-loop convention), so a late response to an
                    // early request is still warm-up, not steady state.
                    const bool warmup =
                        config.warmupMs > 0.0 &&
                        answered.arrivalMs < config.warmupMs;
                    if (warmup) {
                        ++result.warmupExcluded;
                    } else {
                        result.latency.add(responseMs);
                        if (tenant != nullptr)
                            tenant->latency.add(responseMs);
                        if (answered.traceId != 0 &&
                            config.targetMs > 0.0 &&
                            responseMs > config.targetMs)
                            result.overTarget.push_back(OverTargetRequest{
                                answered.seq, answered.traceId,
                                responseMs});
                    }
                    if (config.spans != nullptr && answered.traceId != 0) {
                        obs::Span client;
                        client.traceId = answered.traceId;
                        client.spanId = answered.clientSpanId;
                        client.parentSpanId = 0;
                        client.kind = obs::SpanKind::kClient;
                        client.cls = config.cls;
                        client.startMs = obs::spanNowMs() - responseMs;
                        client.durMs = responseMs;
                        client.targetMs = config.targetMs;
                        client.setName("client");
                        config.spans->record(client);
                        config.spans->finishTrace(answered.traceId,
                                                  config.cls, responseMs,
                                                  config.targetMs);
                    }
                    break;
                }
                case FrameStatus::kBusy: {
                    // The shed may earn another attempt; when it does,
                    // final-outcome accounting moves to the retry.
                    const double hintMs =
                        static_cast<double>(response.retryAfterMs);
                    if (scheduleRetry(answered, msSince(epoch), hintMs,
                                      /*fromTimeout=*/false))
                        break;
                    ++result.shed;
                    if (tenant != nullptr)
                        ++tenant->shed;
                    break;
                }
                case FrameStatus::kError:
                    ++result.errors;
                    if (tenant != nullptr)
                        ++tenant->errors;
                    break;
                case FrameStatus::kCancelled:
                    ++result.cancelled;
                    if (tenant != nullptr)
                        ++tenant->cancelled;
                    break;
                case FrameStatus::kDeadlineExceeded:
                    // Some hop found the end-to-end budget exhausted;
                    // by definition no retry could fit in it.
                    ++result.deadlineExceeded;
                    if (tenant != nullptr)
                        ++tenant->deadlineExceeded;
                    break;
                }
            }
            if (conn.reader.broken()) {
                util::warn("loadgen: protocol error from server: " +
                           conn.reader.error());
                failConn(connIdx, nowMs);
                continue;
            }
            if (streamDied)
                failConn(connIdx, nowMs);
        }
    }

    // Attempts still on the wire and backoffs that never fired are both
    // "never answered" — they are counted, not silently dropped.
    result.unanswered = outstanding.size() + retryQueue.size();
    for (const auto& [wireId, p] : outstanding)
        if (TenantLoadGenResult* t = slice(p.tenantIdx))
            ++t->unanswered;
    for (const auto& [dueMs, item] : retryQueue)
        if (TenantLoadGenResult* t = slice(item.tenantIdx))
            ++t->unanswered;
    result.retriesSuppressed = retryBudget.suppressed();
    result.elapsedMs = msSince(epoch);
    result.achievedQps = result.elapsedMs > 0.0
                             ? result.sent / result.elapsedMs * 1000.0
                             : 0.0;
    return result;
}

namespace {

std::string
hexTraceId(std::uint64_t traceId)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(traceId));
    return std::string(buf);
}

} // namespace

std::vector<std::string>
loadGenCsvHeader()
{
    std::vector<std::string> header = {
        "target_qps",         "achieved_qps",
        "connections",        "sent",
        "completed",          "degraded",
        "shed",               "errors",
        "cancelled",          "deadline_exceeded",
        "timeouts",           "retries",
        "retries_suppressed", "failed",
        "unanswered",         "elapsed_ms",
        "warmup_ms",          "warmup_excluded"};
    const auto latencyHeader =
        stats::LatencySummary::csvHeader("response_ms_");
    header.insert(header.end(), latencyHeader.begin(), latencyHeader.end());
    // The slowest over-target request's trace id (16-digit hex; all
    // zeros when none), joinable against /tracez output.
    header.push_back("trace_id");
    header.push_back("tenant");
    header.push_back("tenant_weight");
    return header;
}

void
writeLoadGenCsv(const LoadGenResult& result, const LoadGenConfig& config,
                const std::string& path)
{
    util::CsvWriter csv(path);
    csv.writeRow(loadGenCsvHeader());

    double totalWeight = 0.0;
    for (const overload::TenantQuota& quota : config.tenants)
        totalWeight += std::max(0.0, quota.weight);

    std::vector<std::string> row = {
        std::to_string(config.qps),
        std::to_string(result.achievedQps),
        std::to_string(config.connections),
        std::to_string(result.sent),
        std::to_string(result.completed),
        std::to_string(result.degraded),
        std::to_string(result.shed),
        std::to_string(result.errors),
        std::to_string(result.cancelled),
        std::to_string(result.deadlineExceeded),
        std::to_string(result.timeouts),
        std::to_string(result.retries),
        std::to_string(result.retriesSuppressed),
        std::to_string(result.failed),
        std::to_string(result.unanswered),
        std::to_string(result.elapsedMs),
        std::to_string(config.warmupMs),
        std::to_string(result.warmupExcluded)};
    const auto latencyRow = result.summary().toCsvRow();
    row.insert(row.end(), latencyRow.begin(), latencyRow.end());
    row.push_back(hexTraceId(result.worstOverTarget().traceId));
    row.push_back("all");
    row.push_back(std::to_string(totalWeight > 0.0 ? totalWeight : 1.0));
    csv.writeRow(row);

    // One row per configured tenant (none when the run was untenanted,
    // so single-tenant consumers still see exactly header + totals).
    for (const TenantLoadGenResult& t : result.perTenant) {
        const double share =
            totalWeight > 0.0 ? std::max(0.0, t.weight) / totalWeight : 0.0;
        std::vector<std::string> tenantRow = {
            std::to_string(config.qps * share),
            std::to_string(result.elapsedMs > 0.0
                               ? t.sent / result.elapsedMs * 1000.0
                               : 0.0),
            std::to_string(config.connections),
            std::to_string(t.sent),
            std::to_string(t.completed),
            std::to_string(t.degraded),
            std::to_string(t.shed),
            std::to_string(t.errors),
            std::to_string(t.cancelled),
            std::to_string(t.deadlineExceeded),
            std::to_string(t.timeouts),
            std::to_string(t.retries),
            "0", // The retry-token bucket is shared, not per-tenant.
            std::to_string(t.failed),
            std::to_string(t.unanswered),
            std::to_string(result.elapsedMs),
            std::to_string(config.warmupMs),
            "0"};
        const auto tenantLatency = t.summary().toCsvRow();
        tenantRow.insert(tenantRow.end(), tenantLatency.begin(),
                         tenantLatency.end());
        tenantRow.push_back(hexTraceId(0));
        tenantRow.push_back(t.name.empty() ? std::to_string(t.tenant)
                                           : t.name);
        tenantRow.push_back(std::to_string(t.weight));
        csv.writeRow(tenantRow);
    }
}

void
writeLoadGenTraceCsv(const LoadGenResult& result, const std::string& path)
{
    util::CsvWriter csv(path);
    csv.writeRow({"seq", "trace_id", "response_ms"});
    for (const OverTargetRequest& req : result.overTarget)
        csv.writeRow({std::to_string(req.seq), hexTraceId(req.traceId),
                      std::to_string(req.responseMs)});
}

} // namespace tpc::net
