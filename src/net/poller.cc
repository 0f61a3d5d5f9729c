#include "net/poller.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>

#include "util/logging.h"

#if defined(__linux__)
#include <sys/epoll.h>
#include <unistd.h>
#else
#include <poll.h>
#endif

namespace tpc::net {

namespace {

/** A microsecond timeout rounded up to whole ms (negative = forever). */
int
ceilMs(std::chrono::microseconds timeout)
{
    if (timeout.count() < 0)
        return -1;
    return static_cast<int>(std::min<std::int64_t>(
        (timeout.count() + 999) / 1000, std::numeric_limits<int>::max()));
}

} // namespace

int
Poller::wait(std::vector<PollEvent>& out, int timeoutMs)
{
    return wait(out, timeoutMs < 0 ? std::chrono::microseconds(-1)
                                   : std::chrono::microseconds(
                                         std::int64_t{timeoutMs} * 1000));
}

#if defined(__linux__)

namespace {

std::uint32_t
toEpoll(std::uint32_t events)
{
    std::uint32_t out = 0;
    if (events & kPollIn)
        out |= EPOLLIN;
    if (events & kPollOut)
        out |= EPOLLOUT;
    return out;
}

std::uint32_t
fromEpoll(std::uint32_t events)
{
    std::uint32_t out = 0;
    if (events & (EPOLLIN | EPOLLRDHUP))
        out |= kPollIn;
    if (events & EPOLLOUT)
        out |= kPollOut;
    if (events & (EPOLLERR | EPOLLHUP))
        out |= kPollErr;
    return out;
}

} // namespace

Poller::Poller()
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        util::fatal(std::string("epoll_create1(): ") + std::strerror(errno));
}

Poller::~Poller()
{
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

void
Poller::add(int fd, std::uint32_t events)
{
    epoll_event ev{};
    ev.events = toEpoll(events);
    ev.data.fd = fd;
    TPC_CHECK(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) == 0);
}

void
Poller::modify(int fd, std::uint32_t events)
{
    epoll_event ev{};
    ev.events = toEpoll(events);
    ev.data.fd = fd;
    TPC_CHECK(::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev) == 0);
}

void
Poller::remove(int fd)
{
    epoll_event ev{};
    TPC_CHECK(::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, &ev) == 0);
}

int
Poller::wait(std::vector<PollEvent>& out, std::chrono::microseconds timeout)
{
    // epoll_pwait2 (Linux 5.11+) takes a timespec. An older kernel
    // answers ENOSYS, and a seccomp profile that predates the call EPERM;
    // after either, waits round up to whole ms.
    static std::atomic<bool> havePwait2{true};
    epoll_event events[64];
    int n;
    for (;;) {
        if (havePwait2.load(std::memory_order_relaxed)) {
            timespec ts{};
            ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000);
            ts.tv_nsec = static_cast<long>(timeout.count() % 1000000) * 1000;
            n = ::epoll_pwait2(epollFd_, events, 64,
                               timeout.count() < 0 ? nullptr : &ts, nullptr);
            if (n < 0 && (errno == ENOSYS || errno == EPERM)) {
                havePwait2.store(false, std::memory_order_relaxed);
                continue;
            }
        } else {
            n = ::epoll_wait(epollFd_, events, 64, ceilMs(timeout));
        }
        if (n >= 0 || errno != EINTR)
            break;
    }
    TPC_CHECK(n >= 0);
    out.clear();
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(
            PollEvent{events[i].data.fd, fromEpoll(events[i].events)});
    return n;
}

#else // poll(2) fallback

Poller::Poller() = default;
Poller::~Poller() = default;

void
Poller::add(int fd, std::uint32_t events)
{
    registrations_.push_back(Registration{fd, events});
}

void
Poller::modify(int fd, std::uint32_t events)
{
    for (Registration& reg : registrations_) {
        if (reg.fd == fd) {
            reg.events = events;
            return;
        }
    }
    TPC_CHECK(false);
}

void
Poller::remove(int fd)
{
    registrations_.erase(
        std::remove_if(registrations_.begin(), registrations_.end(),
                       [fd](const Registration& r) { return r.fd == fd; }),
        registrations_.end());
}

int
Poller::wait(std::vector<PollEvent>& out, std::chrono::microseconds timeout)
{
    const int timeoutMs = ceilMs(timeout);
    std::vector<pollfd> fds;
    fds.reserve(registrations_.size());
    for (const Registration& reg : registrations_) {
        short interest = 0;
        if (reg.events & kPollIn)
            interest |= POLLIN;
        if (reg.events & kPollOut)
            interest |= POLLOUT;
        fds.push_back(pollfd{reg.fd, interest, 0});
    }
    int n;
    do {
        n = ::poll(fds.data(), fds.size(), timeoutMs);
    } while (n < 0 && errno == EINTR);
    TPC_CHECK(n >= 0);
    out.clear();
    for (const pollfd& p : fds) {
        if (p.revents == 0)
            continue;
        std::uint32_t events = 0;
        if (p.revents & POLLIN)
            events |= kPollIn;
        if (p.revents & POLLOUT)
            events |= kPollOut;
        if (p.revents & (POLLERR | POLLHUP | POLLNVAL))
            events |= kPollErr;
        out.push_back(PollEvent{p.fd, events});
    }
    return static_cast<int>(out.size());
}

#endif

} // namespace tpc::net
