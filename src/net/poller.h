/**
 * @file
 * Minimal readiness-notification abstraction for the RPC event loops.
 *
 * On Linux this is a thin epoll(7) wrapper (level-triggered, one
 * registration per fd); elsewhere it degrades to poll(2) over the
 * registered set. The interface is the intersection the RpcServer needs:
 * register/modify/unregister an fd with read/write interest, then wait
 * for a batch of events with a timeout.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace tpc::net {

/** Interest / readiness bits. */
enum PollEvents : std::uint32_t {
    kPollIn = 1u << 0,
    kPollOut = 1u << 1,
    /** Error or hangup; always reported, never requested. */
    kPollErr = 1u << 2,
};

/** One ready descriptor from Poller::wait(). */
struct PollEvent
{
    int fd = -1;
    std::uint32_t events = 0;
};

/** Level-triggered readiness multiplexer (epoll on Linux, else poll). */
class Poller
{
  public:
    Poller();
    ~Poller();

    Poller(const Poller&) = delete;
    Poller& operator=(const Poller&) = delete;

    /** Registers @p fd with the given interest bits. */
    void add(int fd, std::uint32_t events);

    /** Changes the interest bits of a registered fd. */
    void modify(int fd, std::uint32_t events);

    /** Unregisters @p fd (must be called before closing it). */
    void remove(int fd);

    /**
     * Blocks up to @p timeoutMs (-1 = forever, 0 = poll) and fills
     * @p out with ready descriptors. Returns the number of events.
     */
    int wait(std::vector<PollEvent>& out, int timeoutMs);

    /**
     * As above with a microsecond timeout (negative = forever). Linux
     * honours it to the microsecond (epoll_pwait2); the poll(2)
     * fallback rounds it up to whole milliseconds.
     */
    int wait(std::vector<PollEvent>& out, std::chrono::microseconds timeout);

  private:
#if defined(__linux__)
    int epollFd_ = -1;
#else
    struct Registration
    {
        int fd;
        std::uint32_t events;
    };
    std::vector<Registration> registrations_;
#endif
};

} // namespace tpc::net
