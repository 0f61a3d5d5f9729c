#include "client.h"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <string>

#include "common.h"
#include "net/socket.h"

namespace perfbench {

using tpc::net::Frame;
using tpc::net::FrameReader;
using tpc::net::FrameStatus;
using tpc::net::FrameType;

struct OpenLoopClient::Conn
{
    int fd = -1;
    FrameReader reader;
    std::vector<std::uint8_t> out;
    std::size_t outOffset = 0;
    bool wantWrite = false;
};

KeyCycle::KeyCycle(std::uint64_t range, std::mt19937_64& rng)
    : rng_(rng), order_(range), pos_(range)
{
    for (std::uint64_t k = 0; k < range; ++k)
        order_[k] = k;
}

std::uint64_t
KeyCycle::next()
{
    if (pos_ == order_.size()) {
        std::shuffle(order_.begin(), order_.end(), rng_);
        pos_ = 0;
    }
    return order_[pos_++];
}

std::vector<Request>
poissonSchedule(std::mt19937_64& rng, double qps, double durationS,
                std::int64_t startNs, std::uint64_t firstSeq, KeyCycle& keys)
{
    std::exponential_distribution<double> gap(qps);
    std::vector<Request> out;
    out.reserve(static_cast<std::size_t>(qps * durationS * 1.1) + 16);
    double t = gap(rng);
    while (t < durationS) {
        Request r;
        r.seq = firstSeq + out.size();
        r.arg = keys.next();
        r.dueNs = startNs + static_cast<std::int64_t>(t * 1e9);
        out.push_back(r);
        t += gap(rng);
    }
    return out;
}

RealtimeScope::RealtimeScope()
{
    sched_param param{};
    param.sched_priority = 1;
    active_ = ::pthread_setschedparam(::pthread_self(), SCHED_FIFO, &param) == 0;
}

RealtimeScope::~RealtimeScope()
{
    if (!active_)
        return;
    sched_param param{};
    param.sched_priority = 0;
    ::pthread_setschedparam(::pthread_self(), SCHED_OTHER, &param);
}

IdlePollers::IdlePollers(int count)
    : switches_(new std::atomic<std::int64_t>[static_cast<std::size_t>(count)])
{
    for (int i = 0; i < count; ++i) {
        switches_[static_cast<std::size_t>(i)].store(0);
        threads_.emplace_back([this, i] {
            sched_param param{};
            ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
            std::int64_t lastNs = monoNs();
            while (!stop_.load(std::memory_order_relaxed)) {
                for (int k = 0; k < 256; ++k)
                    __builtin_ia32_pause();
                const std::int64_t now = monoNs();
                if (now - lastNs < 1'000'000)
                    continue;
                lastNs = now;
                rusage self{};
                ::getrusage(RUSAGE_THREAD, &self);
                switches_[static_cast<std::size_t>(i)].store(
                    self.ru_nvcsw + self.ru_nivcsw, std::memory_order_relaxed);
            }
        });
    }
}

IdlePollers::~IdlePollers()
{
    stop_.store(true);
    for (std::thread& t : threads_)
        t.join();
}

double
IdlePollers::cpuNs() const
{
    double total = 0.0;
    for (const std::thread& t : threads_) {
        clockid_t clock{};
        if (::pthread_getcpuclockid(
                const_cast<std::thread&>(t).native_handle(), &clock) == 0)
            total += perfbench::cpuNs(clock);
    }
    return total;
}

std::int64_t
IdlePollers::contextSwitches() const
{
    std::int64_t total = 0;
    for (std::size_t i = 0; i < threads_.size(); ++i)
        total += switches_[i].load(std::memory_order_relaxed);
    return total;
}

OpenLoopClient::OpenLoopClient(std::uint16_t port, int connections)
    : readBuf_(1 << 16)
{
    // Timer wake-ups land within ~1 us of the deadline instead of the
    // default 50 us slack.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    timerFd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    if (epollFd_ < 0 || timerFd_ < 0)
        throw std::runtime_error("client: epoll/timerfd setup failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, timerFd_, &ev);
    for (int i = 0; i < connections; ++i) {
        std::string error;
        const int fd = tpc::net::connectTcp("127.0.0.1", port, &error);
        if (fd < 0)
            throw std::runtime_error("client: connect failed: " + error);
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, 2000) != 1 || !tpc::net::connectSucceeded(fd)) {
            ::close(fd);
            throw std::runtime_error("client: connect did not complete");
        }
        auto* conn = new Conn;
        conn->fd = fd;
        conns_.push_back(conn);
        ev.events = EPOLLIN;
        ev.data.ptr = conn;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    }
}

OpenLoopClient::~OpenLoopClient()
{
    for (Conn* conn : conns_) {
        ::close(conn->fd);
        delete conn;
    }
    ::close(timerFd_);
    ::close(epollFd_);
}

void
OpenLoopClient::flush(Conn& conn)
{
    while (conn.outOffset < conn.out.size()) {
        const ssize_t n = ::write(conn.fd, conn.out.data() + conn.outOffset,
                                  conn.out.size() - conn.outOffset);
        if (n > 0) {
            conn.outOffset += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        throw std::runtime_error("client: write failed");
    }
    if (conn.outOffset == conn.out.size()) {
        conn.out.clear();
        conn.outOffset = 0;
    }
    const bool want = !conn.out.empty();
    if (want != conn.wantWrite) {
        epoll_event ev{};
        ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
        ev.data.ptr = &conn;
        ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
        conn.wantWrite = want;
    }
}

void
OpenLoopClient::sendOne(Request& request, Conn& conn)
{
    Frame frame;
    frame.type = FrameType::kRequest;
    frame.requestId = request.seq;
    tpc::net::appendU64(frame.payload, request.seq);
    tpc::net::appendU64(frame.payload, request.arg);
    scratch_.clear();
    tpc::net::encodeFrame(frame, scratch_);
    conn.out.insert(conn.out.end(), scratch_.begin(), scratch_.end());
    request.sentNs = monoNs();
    flush(conn);
}

void
OpenLoopClient::readAll(Conn& conn, std::vector<Request>& requests,
                        const AnswerCheck& check, std::size_t* answered)
{
    const std::uint64_t base = requests.empty() ? 0 : requests.front().seq;
    while (true) {
        const ssize_t n = ::read(conn.fd, readBuf_.data(), readBuf_.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n <= 0)
            throw std::runtime_error("client: server closed a connection");
        const std::int64_t now = monoNs();
        conn.reader.append(readBuf_.data(), static_cast<std::size_t>(n));
        Frame frame;
        while (conn.reader.next(&frame)) {
            if (frame.type != FrameType::kResponse ||
                frame.requestId < base ||
                frame.requestId - base >= requests.size())
                continue;
            Request& r = requests[frame.requestId - base];
            if (r.answered)
                continue;
            r.answered = true;
            r.recvNs = now;
            ++*answered;
            if (frame.status != FrameStatus::kOk) {
                r.shed = true;
            } else if (frame.degraded()) {
                r.degraded = true;
            } else if (check(r, frame)) {
                r.ok = true;
            } else {
                r.wrong = true;
            }
        }
        if (conn.reader.broken())
            throw std::runtime_error("client: undecodable response stream: " +
                                     conn.reader.error());
    }
}

void
OpenLoopClient::run(std::vector<Request>& requests, const AnswerCheck& check,
                    std::int64_t drainNs)
{
    if (requests.empty())
        return;
    std::size_t next = 0;
    std::size_t answered = 0;
    std::size_t rr = 0;
    const std::int64_t stopNs = requests.back().dueNs + drainNs;
    std::int64_t armedFor = -1;
    epoll_event events[16];
    while (answered < requests.size()) {
        std::int64_t now = monoNs();
        while (next < requests.size() && requests[next].dueNs <= now) {
            sendOne(requests[next], *conns_[rr]);
            rr = (rr + 1) % conns_.size();
            ++next;
            now = monoNs();
        }
        if (now >= stopNs)
            break;
        const std::int64_t wakeNs =
            next < requests.size() ? requests[next].dueNs : stopNs;
        if (wakeNs != armedFor) {
            itimerspec spec{};
            spec.it_value.tv_sec = wakeNs / 1000000000;
            spec.it_value.tv_nsec = wakeNs % 1000000000;
            ::timerfd_settime(timerFd_, TFD_TIMER_ABSTIME, &spec, nullptr);
            armedFor = wakeNs;
        }
        const int n = ::epoll_wait(epollFd_, events, 16, -1);
        for (int i = 0; i < n; ++i) {
            auto* conn = static_cast<Conn*>(events[i].data.ptr);
            if (conn == nullptr) {
                std::uint64_t expirations = 0;
                (void)::read(timerFd_, &expirations, sizeof(expirations));
                armedFor = -1;
                continue;
            }
            if (events[i].events & EPOLLOUT)
                flush(*conn);
            if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
                readAll(*conn, requests, check, &answered);
        }
    }
    // Disarm so a stale expiry does not wake the next phase early.
    itimerspec off{};
    ::timerfd_settime(timerFd_, 0, &off, nullptr);
    std::uint64_t expirations = 0;
    (void)::read(timerFd_, &expirations, sizeof(expirations));
}

} // namespace perfbench
