/**
 * @file
 * The benchmark's open-loop client: one thread, a few persistent loopback
 * connections, absolute-deadline pacing through a timerfd (no whole-ms
 * rounding, no spinning) and per-request timestamps for the scheduled
 * send, the actual send and the response read.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "net/frame.h"

namespace perfbench {

/** One request of a phase; timestamps are CLOCK_MONOTONIC ns. */
struct Request
{
    std::uint64_t seq = 0;  ///< Unique per run; also the frame requestId.
    std::uint64_t arg = 0;  ///< Workload input key (query, option, ...).
    std::int64_t dueNs = 0; ///< Scheduled send time.
    std::int64_t sentNs = 0;
    std::int64_t recvNs = 0;
    bool answered = false;
    bool ok = false;       ///< kOk, full coverage and a correct answer.
    bool wrong = false;    ///< kOk, full coverage, but the check failed.
    bool shed = false;     ///< Any non-kOk status (BUSY, deadline, error).
    bool degraded = false; ///< kOk with partial fan-out coverage.

    double latencyMs() const { return (recvNs - dueNs) / 1e6; }
    double lateUs() const { return (sentNs - dueNs) / 1e3; }
};

/**
 * Runs the calling thread under SCHED_FIFO while in scope, so the client
 * is not queued behind the server's CPU-bound workers; threads it creates
 * meanwhile would inherit the policy, so create none. Falls back to the
 * default policy when the process lacks the privilege.
 */
class RealtimeScope
{
  public:
    RealtimeScope();
    ~RealtimeScope();
    RealtimeScope(const RealtimeScope&) = delete;
    RealtimeScope& operator=(const RealtimeScope&) = delete;
    bool active() const { return active_; }

  private:
    bool active_ = false;
};

/**
 * One SCHED_IDLE thread per CPU that spins on `pause` whenever the CPU has
 * nothing else to run, so a virtualised CPU is never halted. On a VM a
 * wake-up from halt costs what the host makes it cost: from tens of us to
 * milliseconds, in periods that come and go with the host's other guests,
 * and a fan-out request waits on a dozen such wake-ups. Any runnable
 * normal thread preempts a poller at once.
 */
class IdlePollers
{
  public:
    explicit IdlePollers(int count);
    ~IdlePollers();
    IdlePollers(const IdlePollers&) = delete;
    IdlePollers& operator=(const IdlePollers&) = delete;

    /** CPU ns and context switches the pollers have used so far (the
     *  switch count is refreshed by each poller about every ms). */
    double cpuNs() const;
    std::int64_t contextSwitches() const;

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
    std::unique_ptr<std::atomic<std::int64_t>[]> switches_;
};

/** Returns true when @p response is the right answer to @p request. */
using AnswerCheck =
    std::function<bool(const Request& request, const tpc::net::Frame& response)>;

/**
 * Request keys: every key in [0, range) once per cycle, each cycle in a
 * fresh seeded order, so every run replays the same key mix (the whole
 * query trace, say) and the seed only decides the order.
 */
class KeyCycle
{
  public:
    KeyCycle(std::uint64_t range, std::mt19937_64& rng);
    std::uint64_t next();

  private:
    std::mt19937_64& rng_;
    std::vector<std::uint64_t> order_;
    std::size_t pos_;
};

/**
 * Builds a Poisson schedule of @p durationS seconds at @p qps starting
 * at @p startNs, taking request keys from @p keys.
 */
std::vector<Request> poissonSchedule(std::mt19937_64& rng, double qps,
                                     double durationS, std::int64_t startNs,
                                     std::uint64_t firstSeq, KeyCycle& keys);

class OpenLoopClient
{
  public:
    /** Connects @p connections sockets to 127.0.0.1:@p port. */
    OpenLoopClient(std::uint16_t port, int connections);
    ~OpenLoopClient();
    OpenLoopClient(const OpenLoopClient&) = delete;
    OpenLoopClient& operator=(const OpenLoopClient&) = delete;

    /**
     * Sends every request at its dueNs (round-robin over connections) and
     * reads responses until all are answered or @p drainNs has passed
     * since the last due time. Unanswered requests stay !answered.
     */
    void run(std::vector<Request>& requests, const AnswerCheck& check,
             std::int64_t drainNs);

  private:
    struct Conn;
    void sendOne(Request& request, Conn& conn);
    void flush(Conn& conn);
    void readAll(Conn& conn, std::vector<Request>& requests,
                 const AnswerCheck& check, std::size_t* answered);

    int epollFd_ = -1;
    int timerFd_ = -1;
    std::vector<Conn*> conns_;
    std::vector<std::uint8_t> scratch_;
    std::vector<std::uint8_t> readBuf_;
};

} // namespace perfbench
