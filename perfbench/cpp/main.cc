/**
 * @file
 * Serving benchmark: builds in-process TPC serving nodes on loopback TCP,
 * drives them open-loop from one thread, checks every answer and prints
 * the end-to-end (--trace 0) or per-layer (--trace 1) metrics as one JSON
 * object on the last line of stdout.
 *
 *   tpc_perfbench --workload finance_mc|fanout4_hedged
 *                 --seed N --seconds S --trace 0|1
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "client.h"
#include "micro.h"
#include "nodes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tpc;

constexpr int kSetupRepeats = 5;
constexpr std::int64_t kDrainNs = 3'000'000'000;
constexpr std::size_t kMinWindowSamples = 250;
constexpr std::size_t kMaxWindows = 7;

/** Shares of --seconds: the low-rate self-check, the warm-up and the
 *  nominal phase (split in two halves on a traced run). The nominal
 *  phase runs as kNominalSlices back-to-back slices of equal length. */
constexpr double kSelfCheckShare = 0.05;
constexpr double kWarmupShare = 0.1;
constexpr double kNominalShare = 0.8;
constexpr int kNominalSlices = 10;

/** A valid nominal phase keeps gen.late_p99_us within this share of its
 *  p50; one that does not is measured again, at most kNominalAttempts
 *  times in all. */
constexpr double kLateGateShareOfP50 = 0.5;
constexpr int kNominalAttempts = 3;

/** Traced runs only: probe k runs at nominal x kProbeFactor^k for
 *  kProbeStepShare of --seconds, for at most kProbeSteps rates. */
constexpr int kProbeSteps = 7;
constexpr double kProbeFactor = 1.25;
constexpr double kProbeStepShare = 0.04;

// --- Phases -------------------------------------------------------------------

struct PhaseResult
{
    double qps = 0.0;
    std::vector<Request> requests;
    std::size_t ok = 0;
    std::size_t wrong = 0;
    std::size_t shed = 0;
    std::size_t unanswered = 0;
    double cpuNs = 0.0;       ///< process CPU minus client and pollers
    double ctxSwitches = 0.0; ///< process switches minus client and pollers
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    std::size_t failed() const { return requests.size() - ok; }
    double failRatio() const
    {
        return requests.empty() ? 0.0
                                : static_cast<double>(failed()) /
                                      static_cast<double>(requests.size());
    }
    /** Latency of answered-OK requests (ms from the scheduled send), in
     *  send order. */
    std::vector<double> okLatencyMs() const
    {
        std::vector<double> v;
        for (const Request& r : requests)
            if (r.ok)
                v.push_back(r.latencyMs());
        return v;
    }
    Summary okLatency() const { return Summary(okLatencyMs()); }
    /** Latency with every failed request counted as the drain timeout,
     *  which misses any limit; in send order. */
    std::vector<double> strictLatencyMs() const
    {
        std::vector<double> v;
        for (const Request& r : requests)
            v.push_back(r.ok ? r.latencyMs() : kDrainNs / 1e6);
        return v;
    }
    /** Appends @p next, a phase run right after this one. */
    void append(PhaseResult next)
    {
        if (requests.empty())
            startNs = next.startNs;
        qps = next.qps;
        requests.insert(requests.end(), next.requests.begin(),
                        next.requests.end());
        ok += next.ok;
        wrong += next.wrong;
        shed += next.shed;
        unanswered += next.unanswered;
        cpuNs += next.cpuNs;
        ctxSwitches += next.ctxSwitches;
        endNs = next.endNs;
    }
    double cpuMsPerCompleted() const
    {
        const double completed =
            static_cast<double>(requests.size() - unanswered);
        return cpuNs / 1e6 / std::max(1.0, completed);
    }
    /** Generator lateness (actual - scheduled send), in send order. */
    std::vector<double> lateUs() const
    {
        std::vector<double> v;
        for (const Request& r : requests)
            if (r.sentNs != 0)
                v.push_back(r.lateUs());
        return v;
    }
};

/**
 * A p99 that one bad stretch of a run cannot decide (a VM descheduled
 * for tens of ms stalls client and server alike): @p inOrder is cut into
 * up to kMaxWindows consecutive windows of at least kMinWindowSamples
 * values, and the median of the windows' p99s is returned — the pooled
 * p99 when only one window fits.
 */
struct RobustP99
{
    double value = 0.0;
    std::size_t windows = 0;
};

RobustP99
robustP99(const std::vector<double>& inOrder)
{
    RobustP99 out;
    out.windows = std::clamp<std::size_t>(inOrder.size() / kMinWindowSamples,
                                          1, kMaxWindows);
    std::vector<double> p99s;
    for (std::size_t w = 0; w < out.windows; ++w) {
        const auto lo =
            static_cast<std::ptrdiff_t>(inOrder.size() * w / out.windows);
        const auto hi =
            static_cast<std::ptrdiff_t>(inOrder.size() * (w + 1) / out.windows);
        p99s.push_back(
            Summary(std::vector<double>(inOrder.begin() + lo,
                                        inOrder.begin() + hi))
                .p99());
    }
    out.value = median(std::move(p99s));
    return out;
}

/**
 * The nominal phase's latency figures. p50 is the lower quartile over the
 * slices of each slice's p50: interference from the shared host (vCPU
 * steal, a busy neighbour on the core) only ever adds time and comes in
 * stretches of seconds to minutes, so this is what the program reaches in
 * the quieter part of its run, and a quarter of the run still has to be
 * that fast. A change that is slower throughout moves it fully. p99 is
 * pooled over the whole phase: a slice holds too few requests for ten of
 * them to lie beyond its p99.
 */
struct NominalFigures
{
    double p50 = 0.0;
    double p99 = 0.0;
    std::size_t slices = 0;
    std::vector<double> sliceP50s; ///< in run order
};

double
lowerQuartile(std::vector<double> values)
{
    return Summary(std::move(values)).quantile(0.25);
}

NominalFigures
nominalFigures(const std::vector<PhaseResult>& slices,
               const PhaseResult& whole)
{
    std::vector<double> p50s;
    for (const PhaseResult& slice : slices) {
        const Summary lat = slice.okLatency();
        if (lat.count() != 0) // empty only when --seconds is far too short
            p50s.push_back(lat.p50());
    }
    NominalFigures out;
    out.sliceP50s = p50s;
    out.p50 = lowerQuartile(std::move(p50s));
    out.p99 = whole.okLatency().p99();
    out.slices = out.sliceP50s.size();
    return out;
}

/** The generator gates over one nominal phase. */
struct GeneratorCheck
{
    RobustP99 lateP99;
    double gateUs = 0.0;
    bool valid = false;
};

GeneratorCheck
checkGenerator(const PhaseResult& phase, const NominalFigures& figures)
{
    GeneratorCheck c;
    c.lateP99 = robustP99(phase.lateUs());
    c.gateUs = kLateGateShareOfP50 * figures.p50 * 1e3;
    c.valid = c.lateP99.value <= c.gateUs;
    return c;
}

class Runner
{
  public:
    Runner(Bench& bench, const IdlePollers& pollers, std::uint64_t seed,
           int connections)
        : bench_(bench),
          pollers_(pollers),
          rng_(seed),
          keys_(bench.argRange(), rng_),
          client_(bench.port(), connections)
    {
    }

    PhaseResult run(double qps, double seconds,
                    std::vector<std::unique_ptr<Hooks>>* hooks = nullptr)
    {
        PhaseResult out;
        out.qps = qps;
        out.requests = poissonSchedule(rng_, qps, seconds,
                                       monoNs() + 2'000'000, nextSeq_, keys_);
        nextSeq_ += out.requests.size() + 1;
        if (hooks != nullptr) {
            hooks->clear();
            for (TpcNode* node : bench_.nodes()) {
                hooks->push_back(std::make_unique<Hooks>(
                    out.requests.empty() ? 0 : out.requests.front().seq,
                    out.requests.size()));
                node->setHooks(hooks->back().get());
            }
        }
        const ResourceSample before = ResourceSample::take();
        const double pollerCpuBefore = pollers_.cpuNs();
        const std::int64_t pollerCtxBefore = pollers_.contextSwitches();
        out.startNs = monoNs();
        client_.run(out.requests,
                    [this](const Request& r, const net::Frame& f) {
                        return bench_.check(r, f);
                    },
                    kDrainNs);
        out.endNs = monoNs();
        const ResourceSample after = ResourceSample::take();
        const double pollerCpu = pollers_.cpuNs() - pollerCpuBefore;
        const std::int64_t pollerCtx =
            pollers_.contextSwitches() - pollerCtxBefore;
        if (hooks != nullptr)
            for (TpcNode* node : bench_.nodes())
                node->setHooks(nullptr);
        out.cpuNs = (after.processCpuNs - before.processCpuNs) -
                    (after.threadCpuNs - before.threadCpuNs) - pollerCpu;
        out.ctxSwitches = static_cast<double>(
            (after.processCtx - before.processCtx) -
            (after.threadCtx - before.threadCtx) - pollerCtx);
        for (const Request& r : out.requests) {
            out.ok += r.ok ? 1 : 0;
            out.wrong += r.wrong ? 1 : 0;
            out.shed += r.shed ? 1 : 0;
            out.unanswered += r.answered ? 0 : 1;
        }
        return out;
    }

  private:
    Bench& bench_;
    const IdlePollers& pollers_;
    std::mt19937_64 rng_;
    KeyCycle keys_;
    OpenLoopClient client_;
    std::uint64_t nextSeq_ = 1;
};

/** Blocks until the topology answers one request for @p arg with kOk. */
void
waitReady(std::uint16_t port, std::uint64_t arg)
{
    OpenLoopClient probe(port, 1);
    for (int attempt = 0; attempt < 50; ++attempt) {
        std::vector<Request> one(1);
        one[0].seq = 1;
        one[0].arg = arg;
        one[0].dueNs = monoNs();
        probe.run(one, [](const Request&, const net::Frame&) { return true; },
                  2'000'000'000);
        if (one[0].ok)
            return;
    }
    throw std::runtime_error("topology never answered a readiness probe");
}

// --- Server-side stats over a phase -------------------------------------------

struct ServerStats
{
    std::size_t completions = 0;
    double degreeSum = 0.0;
    std::size_t corrected = 0;
    std::size_t starved = 0;
    std::vector<double> firstDelayMs;
    double busyMs = 0.0;
    int workers = 0;
};

struct ServerMarks
{
    std::vector<std::size_t> outcomes;
    std::vector<double> busyMs;
};

double
sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

ServerMarks
markServers(Bench& bench)
{
    ServerMarks marks;
    for (TpcNode* node : bench.nodes()) {
        marks.outcomes.push_back(node->server().outcomes().size());
        marks.busyMs.push_back(sum(node->server().workerBusyMs()));
    }
    return marks;
}

ServerStats
serverStatsSince(Bench& bench, const ServerMarks& marks)
{
    ServerStats st;
    std::size_t i = 0;
    for (TpcNode* node : bench.nodes()) {
        const auto outcomes = node->server().outcomes();
        for (std::size_t k = marks.outcomes[i]; k < outcomes.size(); ++k) {
            const server::ThreadedOutcome& o = outcomes[k];
            ++st.completions;
            st.degreeSum += o.initialDegree;
            if (o.corrected) {
                ++st.corrected;
                st.firstDelayMs.push_back(o.firstCorrectionDelayMs);
            }
            st.starved += o.starvedCorrection ? 1 : 0;
        }
        st.busyMs += sum(node->server().workerBusyMs()) - marks.busyMs[i];
        st.workers += node->server().config().numWorkers;
        ++i;
    }
    return st;
}

// --- Ledger ---------------------------------------------------------------------

struct Ledger
{
    std::vector<double> lateUs, rxUs, queueUs, execMs, txUs, e2eMs;
    std::vector<double> slowestLegMs, overheadUs;

    double closure() const
    {
        const double e2e = Summary(e2eMs).p50();
        if (e2e <= 0.0)
            return 0.0;
        const double segments =
            (Summary(lateUs).p50() + Summary(rxUs).p50() +
             Summary(queueUs).p50() + Summary(txUs).p50()) /
                1e3 +
            Summary(execMs).p50();
        return segments / e2e;
    }
};

/**
 * Joins the client's timestamps with the node hooks by seq. For the
 * fan-out tier the path runs through the slowest winning leg: shard i is
 * answered by its primary (slot 0 on node i) or its hedge (slot 1 on the
 * ring replica i+1), whichever finished first.
 */
Ledger
buildLedger(const PhaseResult& phase,
            const std::vector<std::unique_ptr<Hooks>>& hooks)
{
    Ledger ledger;
    const std::size_t n = hooks.size();
    for (const Request& r : phase.requests) {
        if (!r.ok)
            continue;
        std::int64_t rx = 0, start = 0, done = 0;
        double slowest = -1.0;
        bool complete = true;
        for (std::size_t i = 0; i < n && complete; ++i) {
            std::int64_t legRx = hooks[i]->rx(r.seq, 0);
            std::int64_t legStart = hooks[i]->start(r.seq, 0);
            std::int64_t legDone = hooks[i]->done(r.seq, 0);
            if (n > 1) {
                const Hooks& replica = *hooks[(i + 1) % n];
                const std::int64_t hedgeDone = replica.done(r.seq, 1);
                if (hedgeDone != 0 && (legDone == 0 || hedgeDone < legDone)) {
                    legRx = replica.rx(r.seq, 1);
                    legStart = replica.start(r.seq, 1);
                    legDone = hedgeDone;
                }
            }
            if (legRx == 0 || legStart == 0 || legDone == 0) {
                complete = false;
                break;
            }
            const double legMs = static_cast<double>(legDone - legRx) / 1e6;
            if (legMs > slowest) {
                slowest = legMs;
                rx = legRx;
                start = legStart;
                done = legDone;
            }
        }
        if (!complete)
            continue;
        ledger.lateUs.push_back(static_cast<double>(r.sentNs - r.dueNs) / 1e3);
        ledger.rxUs.push_back(static_cast<double>(rx - r.sentNs) / 1e3);
        ledger.queueUs.push_back(static_cast<double>(start - rx) / 1e3);
        ledger.execMs.push_back(static_cast<double>(done - start) / 1e6);
        ledger.txUs.push_back(static_cast<double>(r.recvNs - done) / 1e3);
        ledger.e2eMs.push_back(r.latencyMs());
        ledger.slowestLegMs.push_back(slowest);
        ledger.overheadUs.push_back(
            static_cast<double>(r.recvNs - r.sentNs) / 1e3 - slowest * 1e3);
    }
    return ledger;
}

// --- slo_qps ----------------------------------------------------------------------

struct StepPoint
{
    double qps = 0.0;
    double p99 = 0.0; ///< robust p99, failures counted as the drain timeout
    double failRatio = 0.0;
    std::size_t samples = 0;
    bool pass = false;
};

/**
 * Highest offered rate whose p99 meets the limit with at most 1% failed:
 * interpolated (p99 on a log scale) between the last passing and the
 * first missing rate.
 */
double
sloQps(const std::vector<StepPoint>& points, double limitMs)
{
    if (!points.front().pass)
        return points.front().qps * limitMs /
               std::max(points.front().p99, limitMs);
    for (std::size_t i = 1; i < points.size(); ++i) {
        if (points[i].pass)
            continue;
        const StepPoint& lo = points[i - 1];
        const StepPoint& hi = points[i];
        double t = 0.5;
        if (hi.p99 > lo.p99 && lo.p99 > 0.0)
            t = std::clamp(std::log(limitMs / lo.p99) /
                               std::log(hi.p99 / lo.p99),
                           0.0, 1.0);
        return lo.qps + t * (hi.qps - lo.qps);
    }
    return points.back().qps;
}

// --- Output -----------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< sample count or base, printed in the table only
};

std::string
fmtNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printTable(const std::string& title, const std::vector<Metric>& metrics)
{
    std::printf("\n%s\n", title.c_str());
    for (const Metric& m : metrics)
        std::printf("  %-30s %14.6g %-7s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
}

std::string
count(const char* what, std::size_t n)
{
    return std::string("n=") + std::to_string(n) + " " + what;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else
            throw std::invalid_argument("unknown flag " + key);
    }
    bool known = false;
    for (const Spec& s : specs())
        known = known || s.name == args.workload;
    if (!known)
        throw std::invalid_argument("unknown --workload '" + args.workload +
                                    "'");
    if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

/** Everything one run measured, before it is turned into metrics. */
struct Measurement
{
    std::vector<double> setupS;
    bool realtimeClient = false;
    PhaseResult selfCheck;
    std::size_t warmupWrong = 0;
    PhaseResult nominal; ///< every slice, in order
    NominalFigures figures;
    ServerStats nominalServers;
    GeneratorCheck generator;
    int nominalAttempts = 0;
    std::size_t discardedWrong = 0; ///< in nominal attempts measured again
    std::optional<PhaseResult> traced;
    std::vector<std::unique_ptr<Hooks>> hooks;
    std::optional<obs::FanoutSnapshot> fanBefore, fanAfter;
    std::vector<StepPoint> points;
    std::size_t stepAttempts = 0;
    std::size_t stepShed = 0;
    std::size_t stepWrong = 0;
};

/** Runs the phases (README.md "Phases of one run") on a set-up bench. */
void
measure(Bench& bench, const Spec& spec, const Args& args,
        const IdlePollers& pollers, Measurement& m)
{
    const double S = args.seconds;
    Runner runner(bench, pollers, args.seed, std::min(4, hardwareThreads()));
    RealtimeScope realtime;
    m.realtimeClient = realtime.active();

    // Generator self-check: at an eighth of the nominal rate the client's
    // own lateness must be negligible against the latency it reports.
    m.selfCheck = runner.run(spec.nominalQps / 8,
                             std::max(1.0, kSelfCheckShare * S));
    // Warm-up: only its wrong answers are kept.
    m.warmupWrong = runner.run(spec.nominalQps, kWarmupShare * S).wrong;
    // A traced run splits the nominal time between an untraced and a
    // traced phase at the same rate.
    const double nominalS =
        (args.trace ? kNominalShare / 2 : kNominalShare) * S;
    for (m.nominalAttempts = 1;; ++m.nominalAttempts) {
        const ServerMarks marks = markServers(bench);
        std::vector<PhaseResult> slices;
        m.nominal = PhaseResult{};
        for (int k = 0; k < kNominalSlices; ++k) {
            slices.push_back(
                runner.run(spec.nominalQps, nominalS / kNominalSlices));
            m.nominal.append(slices.back());
        }
        m.nominalServers = serverStatsSince(bench, marks);
        m.figures = nominalFigures(slices, m.nominal);
        m.generator = checkGenerator(m.nominal, m.figures);
        if (m.generator.valid || m.nominalAttempts == kNominalAttempts)
            break;
        // The host stalled the client for much of the phase.
        m.discardedWrong += m.nominal.wrong;
        std::fprintf(stderr,
                     "nominal attempt %d: gen.late_p99_us %.1f (gate %.0f); "
                     "measuring again\n",
                     m.nominalAttempts, m.generator.lateP99.value,
                     m.generator.gateUs);
    }
    if (!args.trace)
        return;

    if (bench.tier())
        m.fanBefore = bench.tier()->aggregator().collector().snapshot();
    m.traced = runner.run(spec.nominalQps, nominalS, &m.hooks);
    if (bench.tier())
        m.fanAfter = bench.tier()->aggregator().collector().snapshot();

    // Probe steps above the nominal rate until one misses the limit. The
    // windowed p99 keeps a transient stall from ending the probe early.
    auto point = [&spec](const PhaseResult& phase) {
        const std::vector<double> lat = phase.strictLatencyMs();
        StepPoint p{phase.qps, robustP99(lat).value, phase.failRatio(),
                    lat.size(), false};
        p.pass = p.p99 <= spec.sloP99Ms && p.failRatio <= 0.01;
        return p;
    };
    m.points.push_back(point(m.nominal));
    double factor = 1.0;
    for (int k = 0; k < kProbeSteps && m.points.back().pass; ++k) {
        factor *= kProbeFactor;
        const PhaseResult step = runner.run(spec.nominalQps * factor,
                                            std::max(0.5, kProbeStepShare * S));
        m.stepAttempts += step.requests.size();
        m.stepShed += step.shed;
        m.stepWrong += step.wrong;
        m.points.push_back(point(step));
    }
}

std::string
setupNote(const std::vector<double>& setupS)
{
    std::string note = count("set-ups", setupS.size()) + ":";
    for (double v : setupS)
        note += " " + fmtNumber(v).substr(0, 6);
    return note;
}

std::vector<Metric>
endToEndMetrics(const Measurement& m)
{
    const PhaseResult& nominal = m.nominal;
    const Summary lat = nominal.okLatency();
    const NominalFigures& fig = m.figures;
    const std::string slices = "lower quartile of " +
                               std::to_string(fig.slices) + " slices; ";
    const std::string samples =
        slices + count("samples", lat.count()) + ", pooled ";
    const std::string pooled =
        "pooled over the phase, " + count("samples", lat.count()) + ", " +
        std::to_string(lat.count() / 100) + " beyond it";
    const double completed =
        static_cast<double>(nominal.requests.size() - nominal.unanswered);
    return {
        {"setup_s", median(m.setupS), "s", setupNote(m.setupS)},
        {"p50_ms", fig.p50, "ms", samples + fmtNumber(lat.p50())},
        {"p99_ms", fig.p99, "ms", pooled},
        {"ok_ratio", 1.0 - nominal.failRatio(), "ratio",
         count("attempted", nominal.requests.size())},
        {"cpu_ms_per_req", nominal.cpuMsPerCompleted(), "ms",
         count("completed", static_cast<std::size_t>(completed))},
        {"rss_mb", peakRssMb(), "MiB", "peak (ru_maxrss)"},
    };
}

std::vector<Metric>
perLayerMetrics(Bench& bench, const Measurement& m)
{
    const PhaseResult& nominal = m.nominal;
    const PhaseResult& traced = *m.traced;
    const Ledger ledger = buildLedger(traced, m.hooks);
    const std::string layer = bench.execLayer();
    const bool search = layer == "search";
    const bool finance = layer == "finance";
    const bool fan = bench.tier() != nullptr;
    const Summary rx(ledger.rxUs), tx(ledger.txUs), queue(ledger.queueUs),
        exec(ledger.execMs), slowest(ledger.slowestLegMs),
        overhead(ledger.overheadUs);
    const std::size_t joined = ledger.e2eMs.size();
    const std::string joinedNote = count("joined", joined);

    MicroInputs inputs;
    inputs.search = &bench.searchFixture();
    inputs.answers = &bench.searchAnswers();
    inputs.renderStatsz = [&bench] {
        return bench.nodes().front()->renderStatsz();
    };
    std::map<std::string, double> micro = runMicroTimings(inputs);

    const ServerStats& st = m.nominalServers;
    const double completions =
        std::max(1.0, static_cast<double>(st.completions));
    const std::string completionsNote = count("completions", st.completions);
    const double completed = std::max(
        1.0, static_cast<double>(nominal.requests.size() - nominal.unanswered));
    const double wallMs =
        static_cast<double>(nominal.endNs - nominal.startNs) / 1e6;
    const Summary firstDelay(st.firstDelayMs);
    double hedges = 0.0, hedgeWins = 0.0;
    std::size_t fanRequests = 0;
    if (m.fanBefore && m.fanAfter) {
        for (std::size_t s = 0; s < m.fanAfter->shards.size(); ++s) {
            hedges += static_cast<double>(m.fanAfter->shards[s].hedgeIssued -
                                          m.fanBefore->shards[s].hedgeIssued);
            hedgeWins += static_cast<double>(m.fanAfter->shards[s].hedgeWon -
                                             m.fanBefore->shards[s].hedgeWon);
        }
        fanRequests = traced.requests.size();
    }
    const std::vector<double> lateValues = nominal.lateUs();
    const Summary late(lateValues);
    const double untracedP50 = nominal.okLatency().p50();
    const double tracedP50 = traced.okLatency().p50();
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    return {
        {"net.rx_p50_us", rx.p50(), "us", joinedNote},
        {"net.rx_p99_us", rx.p99(), "us", joinedNote},
        {"net.tx_p50_us", tx.p50(), "us", joinedNote},
        {"net.tx_p99_us", tx.p99(), "us", joinedNote},
        {"net.frame_encode_ns", micro["net.frame_encode_ns"], "ns", "micro"},
        {"net.frame_decode_ns", micro["net.frame_decode_ns"], "ns", "micro"},
        {"net.reader_ns", micro["net.reader_ns"], "ns", "micro"},
        {"net.ctx_switches_per_req", nominal.ctxSwitches / completed, "count",
         count("completed", static_cast<std::size_t>(completed))},
        {"admission.admit_ns", micro["admission.admit_ns"], "ns", "micro"},
        {"admission.shed_ratio",
         ratio(static_cast<double>(m.stepShed),
               static_cast<double>(m.stepAttempts)),
         "ratio", count("probe requests", m.stepAttempts)},
        {"server.queue_p50_us", queue.p50(), "us", joinedNote},
        {"server.queue_p99_us", queue.p99(), "us", joinedNote},
        {"predict.row_ns", micro["predict.row_ns"], "ns", "micro"},
        {"predict.batch_row_ns", micro["predict.batch_row_ns"], "ns", "micro"},
        {"policy.dispatch_ns", micro["policy.dispatch_ns"], "ns", "micro"},
        {"policy.degree_mean", st.degreeSum / completions, "threads",
         completionsNote},
        {"correction.ratio", static_cast<double>(st.corrected) / completions,
         "ratio", completionsNote},
        {"correction.starved_ratio",
         static_cast<double>(st.starved) / completions, "ratio",
         completionsNote},
        {"correction.first_delay_p50_ms", firstDelay.p50(), "ms",
         count("corrected", firstDelay.count())},
        {"runtime.worker_util", ratio(st.busyMs, st.workers * wallMs), "ratio",
         std::to_string(st.workers) + " workers"},
        {"exec.p50_ms", exec.p50(), "ms", joinedNote},
        {"exec.p99_ms", exec.p99(), "ms", joinedNote},
        {"search.exec_p50_ms", search ? exec.p50() : 0.0, "ms",
         count("joined", search ? joined : 0)},
        {"search.exec_p99_ms", search ? exec.p99() : 0.0, "ms",
         count("joined", search ? joined : 0)},
        {"search.seq_p50_ms", micro["search.seq_p50_ms"], "ms",
         "micro, n=60 queries"},
        {"finance.exec_p50_ms", finance ? exec.p50() : 0.0, "ms",
         count("joined", finance ? joined : 0)},
        {"finance.exec_p99_ms", finance ? exec.p99() : 0.0, "ms",
         count("joined", finance ? joined : 0)},
        {"finance.chunk_us", micro["finance.chunk_us"], "us",
         "micro, one short-request chunk"},
        {"fanout.overhead_p50_us", fan ? overhead.p50() : 0.0, "us",
         count("joined", fan ? joined : 0)},
        {"fanout.overhead_p99_us", fan ? overhead.p99() : 0.0, "us",
         count("joined", fan ? joined : 0)},
        {"fanout.slowest_leg_p99_ms", fan ? slowest.p99() : 0.0, "ms",
         count("joined", fan ? joined : 0)},
        {"fanout.hedge_per_req",
         ratio(hedges, static_cast<double>(fanRequests)), "count",
         count("requests", fanRequests)},
        {"fanout.hedge_win_ratio", ratio(hedgeWins, hedges), "ratio",
         count("hedges", static_cast<std::size_t>(hedges))},
        {"fanout.merge_ns", micro["fanout.merge_ns"], "ns", "micro, 4 replies"},
        {"obs.statsz_render_us", micro["obs.statsz_render_us"], "us", "micro"},
        {"gen.late_p50_us", late.p50(), "us", count("samples", late.count())},
        {"gen.late_p99_us", m.generator.lateP99.value, "us",
         count("samples", late.count())},
        {"gen.realtime", m.realtimeClient ? 1.0 : 0.0, "flag",
         m.realtimeClient ? "SCHED_FIFO client" : "default-policy client"},
        {"gen.nominal_attempts", static_cast<double>(m.nominalAttempts),
         "count", "nominal phases measured"},
        {"ledger.closure_ratio", ledger.closure(), "ratio",
         "segment p50 sum / traced p50, " + joinedNote},
        {"trace.overhead_ratio", ratio(tracedP50, untracedP50), "ratio",
         "traced p50 " + fmtNumber(tracedP50) + " ms"},
    };
}

std::string
resultJson(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric>& metrics)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                fmtNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    return json + "}}";
}

int
run(const Args& args)
{
    Spec spec;
    for (const Spec& s : specs())
        if (s.name == args.workload)
            spec = s;

    // Set-up: the whole topology from nothing to its first answered
    // request, repeated; the median is reported, the last one serves.
    const IdlePollers pollers(hardwareThreads());
    Measurement m;
    std::unique_ptr<Bench> bench;
    for (int k = 0; k < kSetupRepeats; ++k) {
        bench.reset();
        const std::int64_t start = monoNs();
        bench = makeBench(spec.name);
        waitReady(bench->port(), bench->readyArg());
        m.setupS.push_back(static_cast<double>(monoNs() - start) / 1e9);
    }
    bench->prepareAnswers();
    measure(*bench, spec, args, pollers, m);

    std::printf("workload %s seed %llu: nominal %.1f qps, %zu requests "
                "(attempt %d), %d workers/node, %s client thread\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                spec.nominalQps, m.nominal.requests.size(), m.nominalAttempts,
                defaultWorkers(),
                m.realtimeClient ? "SCHED_FIFO" : "default-policy");
    const std::vector<Metric> e2e = endToEndMetrics(m);
    printTable("end-to-end", e2e);
    if (args.trace) {
        for (const StepPoint& p : m.points)
            std::printf("  rate %8.1f qps: p99 %9.3f ms (n=%zu) fail %.4f %s\n",
                        p.qps, p.p99, p.samples, p.failRatio,
                        p.pass ? "pass" : "miss");
        // Printed, not in the JSON result: on the fan-out tier the knee is
        // metastable (the same probe rate either keeps up or collapses
        // into backlog), so this figure does not repeat within any
        // allowed bound.
        std::printf("  %-30s %14.6g %-7s limit p99<=%g ms, %zu rates\n",
                    "slo_qps", sloQps(m.points, spec.sloP99Ms), "1/s",
                    spec.sloP99Ms, m.points.size());
    }
    std::printf("  slice p50s (ms, in run order):");
    for (double v : m.figures.sliceP50s)
        std::printf(" %.3f", v);
    std::printf("\n");
    const GeneratorCheck& gen = m.generator;
    const std::vector<double> lateValues = m.nominal.lateUs();
    std::printf("  generator lateness p50 %.1f us, p99 %.1f us (n=%zu in %zu "
                "window(s), pooled p99 %.1f us, gate %.0f us)\n",
                median(lateValues), gen.lateP99.value, lateValues.size(),
                gen.lateP99.windows, Summary(lateValues).p99(), gen.gateUs);
    std::vector<Metric> layers;
    if (args.trace) {
        layers = perLayerMetrics(*bench, m);
        printTable("per-layer", layers);
    }

    // Validity gates.
    const std::size_t wrong = m.selfCheck.wrong + m.warmupWrong +
                              m.discardedWrong + m.nominal.wrong +
                              m.stepWrong + (m.traced ? m.traced->wrong : 0);
    bool valid = gen.valid;
    if (!valid)
        std::fprintf(stderr,
                     "invalid run: in each of %d nominal attempts the client "
                     "was late (gen.late_p99_us %.1f, gate %.0f us)\n",
                     m.nominalAttempts, gen.lateP99.value, gen.gateUs);
    const double selfLateP50Ms = median(m.selfCheck.lateUs()) / 1e3;
    const double selfP50 = m.selfCheck.okLatency().p50();
    std::printf("generator self-check at %.1f qps: late p50 %.4f ms vs "
                "p50 %.4f ms (n=%zu)\n",
                m.selfCheck.qps, selfLateP50Ms, selfP50,
                m.selfCheck.requests.size());
    if (m.selfCheck.ok == 0 || selfLateP50Ms > 0.25 * selfP50) {
        std::fprintf(stderr, "invalid run: generator lateness is not "
                             "negligible at a low rate\n");
        valid = false;
    }
    if (wrong != 0)
        std::fprintf(stderr, "%zu wrong answers\n", wrong);

    // attempted/failed cover the nominal (and traced) phases; a wrong
    // answer in any phase also counts as failed.
    std::size_t attempted = m.nominal.requests.size();
    std::size_t failed = m.nominal.failed() + m.selfCheck.wrong +
                         m.warmupWrong + m.discardedWrong + m.stepWrong;
    if (m.traced) {
        attempted += m.traced->requests.size();
        failed += m.traced->failed();
    }
    std::printf("%s\n", resultJson(wrong == 0 && valid, attempted, failed,
                                   args.trace ? layers : e2e)
                            .c_str());
    std::fflush(stdout);
    if (wrong != 0)
        return 3;
    return valid ? 0 : 4;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        const perfbench::Args args = perfbench::parseArgs(argc, argv);
        return perfbench::run(args);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "tpc_perfbench: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "tpc_perfbench: %s\n", e.what());
        return 1;
    }
}
