/**
 * @file
 * The three workloads, driven through golite's public API.
 *
 *  - protocol_sweep: every corpus kernel x {buggy, fixed} x a seed
 *    range, detectors attached, fanned over the sweep pool in rounds
 *    (closed loop, one parallel::runJobs epoch per round).
 *  - schedule_search: serial fuzz campaigns (hunt each buggy kernel,
 *    certify each fixed one) and bounded DPOR over each fixed kernel,
 *    repeated in identical cycles.
 *  - soak: repeated open-loop load::runSoak runs at the 10k-live
 *    shape.
 *
 * Every workload reports medians over its rounds / cycles / soak
 * runs, checks its outputs, and in a traced run adds the per-layer
 * counts the model in main.cc needs.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "corpus/bug.hh"
#include "explore/explorer.hh"
#include "fuzz/fuzzer.hh"
#include "golite/golite.hh"
#include "ledger.hh"
#include "parallel/protocol.hh"
#include "parallel/sweep.hh"
#include "runtime/stack_pool.hh"
#include "reference.hh"
#include "spans.hh"

namespace perfledger
{

namespace
{

using namespace golite;
using corpus::BugCase;
using corpus::Variant;

unsigned
hostWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/** Order-sensitive FNV-1a over 64-bit words. */
template <typename Words>
uint64_t
fnv(const Words &words)
{
    uint64_t h = 1469598103934665603ull;
    for (uint64_t w : words) {
        h ^= w;
        h *= 1099511628211ull;
    }
    return h;
}

/** Outcome digest of one kernel run: equal digests for the same
 *  (kernel, variant, seed) on every round is the determinism check. */
uint64_t
digest(const corpus::BugOutcome &out)
{
    const RunReport &r = out.report;
    return fnv(std::initializer_list<uint64_t>{
        r.completed, r.globalDeadlock, r.panicked, r.livelocked,
        r.leaked.size(), r.raceMessages.size(), r.partialDeadlocks.size(),
        r.goroutinesCreated, r.ticks, static_cast<uint64_t>(r.finalTimeNs),
        out.manifested});
}

/** A fixed variant must stay silent under every detector. */
bool
fixedFlagged(const corpus::BugOutcome &out)
{
    const RunReport &r = out.report;
    return out.manifested || !r.raceMessages.empty() ||
           r.partialDeadlockFlagged() || r.globalDeadlock || r.panicked;
}

/** Per-op counters taken from RunReport::metrics in traced runs. */
struct Counts
{
    double ops = 0;
    double dispatches = 0;
    double switches = 0;
    double parks = 0;
    double spawns = 0;
    double chanOps = 0;
    double lockOps = 0;
    double memAccesses = 0;   ///< under the race detector
    double raceSyncEvents = 0; ///< under the race detector
    double raceResets = 0;
    double waitgraphEvents = 0;
    double waitgraphResets = 0;
    double peakLive = 0;

    void
    addRun(const RunMetrics &m, bool raced, bool waitgraphed)
    {
        dispatches += static_cast<double>(m.dispatches);
        switches += static_cast<double>(m.contextSwitches);
        parks += static_cast<double>(m.parks);
        spawns += static_cast<double>(m.spawns);
        const double chan = static_cast<double>(
            m.chanSends + m.chanRecvs + m.chanCloses + m.chanTryOps +
            m.selectBlocks);
        const double lock = static_cast<double>(
            m.lockWriteAcquires + m.lockReadAcquires + m.lockReleases);
        chanOps += chan;
        lockOps += lock;
        const double other_sync =
            static_cast<double>(m.onceOps + m.wgDeltas + m.wgWaits);
        if (raced) {
            memAccesses += static_cast<double>(m.memReads + m.memWrites);
            raceSyncEvents += chan + lock + other_sync +
                              static_cast<double>(m.spawns);
        }
        if (waitgraphed)
            waitgraphEvents += lock + 2.0 * static_cast<double>(m.parks) +
                               2.0 * static_cast<double>(m.spawns);
        peakLive =
            std::max(peakLive, static_cast<double>(m.maxLiveGoroutines));
    }

    void
    merge(const Counts &o)
    {
        ops += o.ops;
        dispatches += o.dispatches;
        switches += o.switches;
        parks += o.parks;
        spawns += o.spawns;
        chanOps += o.chanOps;
        lockOps += o.lockOps;
        memAccesses += o.memAccesses;
        raceSyncEvents += o.raceSyncEvents;
        raceResets += o.raceResets;
        waitgraphEvents += o.waitgraphEvents;
        waitgraphResets += o.waitgraphResets;
        peakLive = std::max(peakLive, o.peakLive);
    }

    /** Publish as per-op layer metrics (the names main.cc models). */
    void
    publish(Outcome &out) const
    {
        const double n = std::max(ops, 1.0);
        const auto samples = static_cast<uint64_t>(ops);
        out.add("runtime.dispatches_per_op", dispatches / n, "count",
                samples);
        out.add("runtime.switches_per_op", switches / n, "count",
                samples);
        out.add("runtime.parks_per_op", parks / n, "count", samples);
        out.add("runtime.spawns_per_op", spawns / n, "count", samples);
        out.add("runtime.peak_live", peakLive, "count", samples);
        out.add("channel.ops_per_op", chanOps / n, "count", samples);
        out.add("sync.lock_ops_per_op", lockOps / n, "count", samples);
        out.add("race.mem_accesses_per_op", memAccesses / n, "count",
                samples);
        out.add("model.race_sync_per_op", raceSyncEvents / n, "count",
                samples);
        out.add("model.race_resets_per_op", raceResets / n, "count",
                samples);
        out.add("model.waitgraph_events_per_op", waitgraphEvents / n,
                "count", samples);
        out.add("model.waitgraph_resets_per_op", waitgraphResets / n,
                "count", samples);
    }
};

/** Stack mmaps so far, summed over the sweep workers (or the calling
 *  thread alone when @p sweep is null). */
uint64_t
stacksMapped(const parallel::SweepOptions *sweep)
{
    if (sweep == nullptr)
        return StackPool::local().stats().mapped;
    std::vector<uint64_t> mapped(sweep->workers + 1, 0);
    parallel::sharedPool().onAllWorkers(
        [&mapped](unsigned w) {
            mapped[w] = StackPool::local().stats().mapped;
        },
        sweep->workers);
    uint64_t total = 0;
    for (uint64_t m : mapped)
        total += m;
    return total;
}

/** Host-speed factor on the calling thread: reference time over
 *  nominal (above 1 = the host is slower than nominal right now). */
double
speedFactor()
{
    return referenceNs() / kReferenceNominalNs;
}

/** speedFactor() taken on every sweep worker at once (median). */
double
speedFactor(const parallel::SweepOptions &sweep)
{
    std::vector<double> f(sweep.workers + 1, 0);
    parallel::sharedPool().onAllWorkers(
        [&f](unsigned w) { f[w] = speedFactor(); }, sweep.workers);
    f.erase(std::remove(f.begin(), f.end(), 0.0), f.end());
    return median(f);
}

/**
 * The measurement windows (rounds, cycles or soak runs) of one phase.
 * Each window carries the host-speed factor measured around it, so
 * CPU-bound figures can be restated at the nominal reference speed;
 * the raw medians are reported next to them.
 */
struct Series
{
    std::vector<double> opsPerS, cpuUs, p50, p99, factor;
    Percentile last50, last99;
    uint64_t samples = 0;

    void
    add(double ops_per_s, double cpu_us, const Percentile &q50,
        const Percentile &q99)
    {
        opsPerS.push_back(ops_per_s);
        cpuUs.push_back(cpu_us);
        p50.push_back(q50.value);
        p99.push_back(q99.value);
        factor.push_back(1.0);
        last50 = q50;
        last99 = q99;
        samples += q50.samples;
    }

    /** Set the factor of the windows from index @p first on. */
    void
    setFactor(size_t first, double f)
    {
        for (size_t i = first; i < factor.size(); ++i)
            factor[i] = f;
    }

    /** Median of v[i] * factor[i]^power. */
    double
    scaled(const std::vector<double> &v, int power) const
    {
        std::vector<double> out;
        for (size_t i = 0; i < v.size(); ++i)
            out.push_back(v[i] * std::pow(factor[i], power));
        return median(out);
    }

    /** Throughput restated at nominal speed. */
    double opsAtNominal() const { return scaled(opsPerS, 1); }

    /**
     * Publish the end-to-end metrics. CPU per op is restated at
     * nominal host speed. In a @p closed_loop workload throughput and
     * per-op latency are CPU-bound and are restated too; in an open
     * loop throughput is the arrival schedule and latency is
     * dominated by the timed service delay, so they stay raw.
     */
    void
    report(Outcome &out, const char *windows, bool closed_loop) const
    {
        const auto n = opsPerS.size();
        const int k = closed_loop ? 1 : 0;
        const std::string raw = std::string("median over ") + windows;
        const std::string nominal = raw + ", at nominal host speed";
        const std::string note = closed_loop ? nominal : raw;
        char q[64];
        out.add("ops_per_s", scaled(opsPerS, k), "1/s", n, note);
        out.add("cpu_us_per_op", scaled(cpuUs, -1), "us", n, nominal);
        std::snprintf(q, sizeof q, ", quantile %.4f", last50.quantile);
        out.add("op_p50_us", scaled(p50, -k), "us", samples, note + q);
        std::snprintf(q, sizeof q, ", quantile %.4f", last99.quantile);
        out.add("op_p99_us", scaled(p99, -k), "us", samples, note + q);
        out.add("raw.ops_per_s", median(opsPerS), "1/s", n, raw);
        out.add("raw.cpu_us_per_op", median(cpuUs), "us", n, raw);
        out.add("raw.op_p50_us", median(p50), "us", samples, raw);
        out.add("raw.op_p99_us", median(p99), "us", samples, raw);
        out.add("host.speed_factor", median(factor), "ratio", n,
                "reference time / nominal");
    }
};

// --------------------------------------------------------------------
// protocol_sweep

constexpr uint64_t kSweepSeeds = 50; ///< seeds per kernel variant

enum JobStatus : uint8_t
{
    kOk,
    kCrashed,
    kHung,
    kDiverged,
    kFlagged,
};

const char *
statusName(uint8_t s)
{
    switch (s) {
    case kCrashed: return "crashed";
    case kHung: return "hung";
    case kDiverged: return "diverged";
    case kFlagged: return "fixed variant flagged";
    default: return "ok";
    }
}

struct SweepJob
{
    const BugCase *bug;
    Variant variant;
    uint64_t seed;
    bool blocking;
};

struct Sweep
{
    std::vector<SweepJob> jobs;
    std::vector<std::function<RunReport()>> thunks;
    std::vector<int64_t> latNs;
    std::vector<uint64_t> digests;
    std::vector<uint64_t> firstDigests;
    std::vector<uint8_t> status;
    std::vector<Counts> counts; ///< traced runs only
    bool counting = false;
    uint64_t round = 0;
};

void
sweepJob(Sweep &sw, size_t i)
{
    const SweepJob &job = sw.jobs[i];
    const uint64_t id = sw.round * sw.jobs.size() + i;
    ScopedSpan span(SpanName::Job, id);
    const int64_t t0 = nowNs();
    RunOptions ro;
    ro.seed = job.seed;
    if (job.blocking) {
        ScopedSpan reset(SpanName::WaitgraphReset, id);
        ro.subscribers.push_back(
            &parallel::threadLocalWaitgraphDetector());
    } else {
        ScopedSpan reset(SpanName::RaceReset, id);
        ro.subscribers.push_back(&parallel::threadLocalDetector(4));
    }
    thread_local obs::MetricsSink sink;
    if (sw.counting)
        ro.subscribers.push_back(&sink);
    uint8_t status = kOk;
    corpus::BugOutcome out;
    try {
        ScopedSpan run(SpanName::KernelRun, id);
        out = job.bug->run(job.variant, ro);
    } catch (...) {
        status = kCrashed;
    }
    sw.latNs[i] = nowNs() - t0;
    if (status == kOk) {
        if (out.report.livelocked)
            status = kHung;
        else if (out.report.replayDivergence.diverged)
            status = kDiverged;
        else if (job.variant == Variant::Fixed && fixedFlagged(out))
            status = kFlagged;
    }
    sw.status[i] = status;
    sw.digests[i] = digest(out);
    if (sw.counting) {
        Counts &c = sw.counts[i];
        c = Counts{};
        c.ops = 1;
        c.addRun(out.report.metrics, !job.blocking, job.blocking);
        (job.blocking ? c.waitgraphResets : c.raceResets) = 1;
    }
}

/** The Table 12 protocol (first detecting seed in 0..99 per reproduced
 *  non-blocking bug), totalled per cause like bench_table12. */
std::map<std::string, std::pair<int, int>>
table12Rows()
{
    std::map<std::string, std::pair<int, int>> rows;
    for (const BugCase *bug :
         corpus::bugsByBehavior(corpus::Behavior::NonBlocking, true)) {
        const bool hit = parallel::findFirstRaceSeed(
                             *bug, 100, parallel::sharedPool())
                             .has_value();
        auto &row = rows[corpus::subCauseName(bug->info.subcause)];
        row.first++;
        row.second += hit;
        rows["total"].first++;
        rows["total"].second += hit;
    }
    return rows;
}

/** The committed expectation: cause -> (used, detected). */
bool
readTable12Expected(const std::string &path,
                    std::map<std::string, std::pair<int, int>> &rows)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    auto intAfter = [&text](const std::string &key, size_t from) {
        const size_t k = text.find("\"" + key + "\"", from);
        if (k == std::string::npos)
            return -1;
        const size_t colon = text.find(':', k);
        return std::atoi(text.c_str() + colon + 1);
    };
    size_t pos = 0;
    while ((pos = text.find("\"cause\"", pos)) != std::string::npos) {
        const size_t q1 = text.find('"', text.find(':', pos) + 1);
        const size_t q2 = text.find('"', q1 + 1);
        const std::string cause = text.substr(q1 + 1, q2 - q1 - 1);
        rows[cause] = {intAfter("used", q2), intAfter("detected", q2)};
        pos = q2;
    }
    return !rows.empty();
}

} // namespace

void
runProtocolSweep(const Args &args, Outcome &out)
{
    Sweep sw;
    const uint64_t base = mix(args.seed) % 1'000'000;
    for (const BugCase &bug : corpus::corpus())
        for (Variant v : {Variant::Buggy, Variant::Fixed})
            for (uint64_t s = 0; s < kSweepSeeds; ++s)
                sw.jobs.push_back(
                    {&bug, v, base + s,
                     bug.info.behavior == corpus::Behavior::Blocking});
    const size_t n = sw.jobs.size();
    sw.latNs.assign(n, 0);
    sw.digests.assign(n, 0);
    sw.status.assign(n, kOk);
    sw.counts.assign(n, Counts{});
    for (size_t i = 0; i < n; ++i)
        sw.thunks.push_back([&sw, i] {
            sweepJob(sw, i);
            return RunReport{};
        });
    parallel::SweepOptions sweep;
    sweep.workers = hostWorkers();
    parallel::warmSweepWorkers(sweep);
    if (setupDone(args, out))
        return;

    // Per-job verdicts of the round just run, plus the determinism
    // check against the first round.
    auto checkRound = [&] {
        if (sw.firstDigests.empty())
            sw.firstDigests = sw.digests;
        for (size_t i = 0; i < n; ++i) {
            if (sw.status[i] == kOk && sw.digests[i] != sw.firstDigests[i])
                sw.status[i] = kDiverged;
            out.attempted++;
            if (sw.status[i] != kOk) {
                const SweepJob &j = sw.jobs[i];
                out.fail(j.bug->info.id +
                         (j.variant == Variant::Buggy ? " buggy" : " fixed") +
                         " seed " + std::to_string(j.seed) + ": " +
                         statusName(sw.status[i]));
            }
        }
        sw.round++;
    };
    // One window is the rounds of about half a second, bracketed by
    // host-speed measurements on every worker.
    auto runPhase = [&](double seconds, Series &ph, Counts *counts) {
        const int64_t end = nowNs() + static_cast<int64_t>(seconds * 1e9);
        std::vector<double> lat_us(n);
        do {
            const size_t first = ph.opsPerS.size();
            const double f0 = speedFactor(sweep);
            const int64_t window_end = nowNs() + 500'000'000;
            do {
                const double cpu0 = cpuSeconds();
                const int64_t t0 = nowNs();
                {
                    ScopedSpan epoch(SpanName::SweepEpoch, sw.round);
                    (void)parallel::runJobs(sw.thunks, sweep);
                }
                const double wall =
                    static_cast<double>(nowNs() - t0) / 1e9;
                const double cpu = cpuSeconds() - cpu0;
                for (size_t i = 0; i < n; ++i)
                    lat_us[i] = static_cast<double>(sw.latNs[i]) / 1e3;
                const Percentile q50 = percentile(lat_us, 0.50);
                const Percentile q99 = percentile(lat_us, 0.99);
                ph.add(static_cast<double>(n) / wall,
                       cpu * 1e6 / static_cast<double>(n), q50, q99);
                checkRound();
                if (counts != nullptr)
                    for (const Counts &c : sw.counts)
                        counts->merge(c);
            } while (nowNs() < window_end);
            ph.setFactor(first, (f0 + speedFactor(sweep)) / 2);
        } while (nowNs() < end);
    };

    Series plain;
    runPhase(args.trace ? args.seconds / 2 : args.seconds, plain, nullptr);
    if (!args.trace) {
        plain.report(out, "rounds", true);
    } else {
        parallel::SweepProfile profile;
        sweep.profile = &profile;
        sw.counting = true;
        const uint64_t mapped0 = stacksMapped(&sweep);
        clearSpans();
        setTracing(true);
        Series traced;
        Counts total;
        runPhase(args.seconds / 2, traced, &total);
        setTracing(false);
        const uint64_t mapped = stacksMapped(&sweep) - mapped0;
        total.publish(out);
        out.add("runtime.stacks_mapped_per_op",
                static_cast<double>(mapped) / total.ops, "count",
                static_cast<uint64_t>(total.ops));
        const auto agg = totalAggregates();
        const double epochs = static_cast<double>(profile.epochs);
        out.add("parallel.setup_s", profile.setupSeconds / epochs, "s",
                profile.epochs, "mean per runJobs epoch");
        out.add("parallel.run_s", profile.runSeconds / epochs, "s",
                profile.epochs, "mean per runJobs epoch");
        out.add("parallel.merge_s", profile.mergeSeconds / epochs, "s",
                profile.epochs, "mean per runJobs epoch");
        out.add("parallel.busy_frac",
                static_cast<double>(agg[size_t(SpanName::Job)].totalNs) /
                    1e9 / (sweep.workers * profile.runSeconds),
                "ratio", profile.epochs,
                "job span time / (workers x epoch run time)");
        auto meanUs = [&agg](SpanName s) {
            const SpanAgg &a = agg[size_t(s)];
            return a.count ? static_cast<double>(a.totalNs) / 1e3 /
                                 static_cast<double>(a.count)
                           : 0.0;
        };
        out.add("race.reset_us", meanUs(SpanName::RaceReset), "us",
                agg[size_t(SpanName::RaceReset)].count,
                "span around threadLocalDetector()");
        out.add("waitgraph.reset_us", meanUs(SpanName::WaitgraphReset),
                "us", agg[size_t(SpanName::WaitgraphReset)].count,
                "span around threadLocalWaitgraphDetector()");
        out.add("model.cpu_us_per_op", median(plain.cpuUs), "us",
                plain.cpuUs.size(), "untraced half");
        out.add("trace.overhead",
                plain.opsAtNominal() / traced.opsAtNominal() - 1.0,
                "ratio", traced.opsPerS.size());
    }

    // Table 12 totals must equal the committed expectation.
    std::map<std::string, std::pair<int, int>> expected;
    const std::string path =
        args.repoRoot + "/baselines/BENCH_table12_expected.json";
    const bool have = readTable12Expected(path, expected);
    out.check(have, "read " + path);
    if (have) {
        const auto got = table12Rows();
        for (const auto &[cause, want] : expected) {
            const auto it = got.find(cause);
            const std::pair<int, int> row =
                it == got.end() ? std::pair<int, int>{0, 0} : it->second;
            out.check(row == want,
                      "Table 12 row '" + cause + "': used/detected " +
                          std::to_string(row.first) + "/" +
                          std::to_string(row.second) + ", expected " +
                          std::to_string(want.first) + "/" +
                          std::to_string(want.second));
        }
    }
}

// --------------------------------------------------------------------
// schedule_search

namespace
{

constexpr size_t kHuntBudget = 2000;
constexpr size_t kCertifyBudget = 120;
constexpr size_t kDporBudget = 150;

enum class CampaignKind
{
    Hunt,    ///< fuzz the buggy variant to its first bug
    Certify, ///< fuzz the fixed variant for the whole budget
    Dpor,    ///< DPOR at preemption bound 1 over the fixed variant
};

struct Campaign
{
    const BugCase *bug;
    CampaignKind kind;
};

/** What one pass over every campaign produced. */
struct Cycle
{
    /** Per campaign: executions-to-first-bug (hunt) or executions. */
    std::vector<size_t> signature;
    std::vector<int64_t> gapsNs;
    size_t executions = 0;
    size_t fuzzExecutions = 0;
    size_t coverageStates = 0;
    size_t exploreExecutions = 0;
    size_t exploreRedundant = 0;
    double wallS = 0;
    double cpuS = 0;
    Counts counts;
};

Cycle
runCycle(const std::vector<Campaign> &campaigns, uint64_t fuzz_seed,
         bool counting, uint64_t first_id, Outcome &out)
{
    Cycle cy;
    obs::MetricsSink sink;
    // The campaigns run on this thread; the speed sampler's CPU is not
    // theirs.
    const double cpu0 = cpuSeconds(true);
    const int64_t t0 = nowNs();
    uint64_t id = first_id;
    for (const Campaign &c : campaigns) {
        const BugCase &bug = *c.bug;
        CompletionGaps gaps(nowNs());
        auto execute = [&](Variant variant, const RunOptions &ro,
                           SpanName span) {
            ScopedSpan s(span, id);
            corpus::BugOutcome o;
            if (counting) {
                RunOptions with = ro;
                with.subscribers.push_back(&sink);
                o = bug.run(variant, with);
                cy.counts.ops++;
                cy.counts.addRun(o.report.metrics, true, false);
            } else {
                o = bug.run(variant, ro);
            }
            return o;
        };
        if (c.kind == CampaignKind::Dpor) {
            explore::ExploreOptions eo;
            eo.maxSchedules = kDporBudget;
            eo.mode = explore::ExploreMode::Dpor;
            eo.preemptionBound = 1;
            race::Detector det(4);
            explore::ExploreResult r;
            {
                ScopedSpan s(SpanName::ExploreCampaign, id);
                r = explore::exploreAll(
                    [&](const RunOptions &base) {
                        det.reset();
                        RunOptions ro = base;
                        ro.subscribers.push_back(&det);
                        corpus::BugOutcome o = execute(
                            Variant::Fixed, ro, SpanName::ExploreExec);
                        if (o.manifested)
                            o.report.raceMessages.push_back(
                                "kernel bug manifested: " + o.note);
                        gaps.complete(nowNs());
                        return std::move(o.report);
                    },
                    eo);
            }
            out.check(!r.anyBad(), bug.info.id +
                                       ": DPOR flagged the fixed variant");
            cy.signature.push_back(r.executions);
            cy.executions += r.executions;
            cy.exploreExecutions += r.executions;
            cy.exploreRedundant += r.redundant;
        } else {
            const bool hunt = c.kind == CampaignKind::Hunt;
            const Variant variant = hunt ? Variant::Buggy : Variant::Fixed;
            fuzz::FuzzOptions fo;
            fo.maxExecutions = hunt ? kHuntBudget : kCertifyBudget;
            fo.workers = 1;
            fo.fuzzSeed = fuzz_seed;
            fo.attachRaceDetector = true;
            fo.stopAtFirstBug = true;
            fuzz::FuzzResult r;
            {
                ScopedSpan s(SpanName::FuzzCampaign, id);
                r = fuzz::fuzzRun(
                    [&](const RunOptions &ro) {
                        corpus::BugOutcome o =
                            execute(variant, ro, SpanName::FuzzExec);
                        // fuzzKernel's predicate, detector chained.
                        const bool hit = o.manifested ||
                                         !o.report.raceMessages.empty();
                        gaps.complete(nowNs());
                        return fuzz::Execution{std::move(o.report), hit};
                    },
                    fo);
            }
            if (hunt)
                out.check(r.bugFound, bug.info.id + ": buggy variant not "
                                                    "found in " +
                                          std::to_string(r.executions) +
                                          " executions");
            else
                out.check(!r.bugFound,
                          bug.info.id + ": fuzzer flagged the fixed "
                                        "variant at execution " +
                              std::to_string(r.executionsToBug));
            cy.signature.push_back(hunt ? r.executionsToBug
                                        : r.executions);
            cy.executions += r.executions;
            cy.fuzzExecutions += r.executions;
            cy.coverageStates += r.coverageStates;
        }
        cy.gapsNs.insert(cy.gapsNs.end(), gaps.gaps().begin(),
                         gaps.gaps().end());
        id++;
    }
    cy.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    cy.cpuS = cpuSeconds(true) - cpu0;
    return cy;
}

} // namespace

void
runScheduleSearch(const Args &args, Outcome &out)
{
    std::vector<Campaign> campaigns;
    for (const BugCase &bug : corpus::corpus())
        campaigns.push_back({&bug, CampaignKind::Hunt});
    for (const BugCase &bug : corpus::corpus())
        campaigns.push_back({&bug, CampaignKind::Certify});
    for (const BugCase &bug : corpus::corpus())
        campaigns.push_back({&bug, CampaignKind::Dpor});
    const uint64_t fuzz_seed = mix(args.seed ^ 0x5eed) | 1;
    if (setupDone(args, out))
        return;

    std::vector<size_t> first_signature;
    uint64_t next_id = 0;
    std::vector<Cycle> traced_cycles;
    SpeedSampler speed;
    // One window is one cycle.
    auto runPhase = [&](double seconds, bool counting, Series &ph) {
        const int64_t start = nowNs();
        double last_wall = 0;
        do {
            const int64_t t0 = nowNs();
            Cycle cy = runCycle(campaigns, fuzz_seed, counting, next_id,
                                out);
            const double f = speed.factor(t0, nowNs());
            next_id += campaigns.size();
            if (first_signature.empty())
                first_signature = cy.signature;
            out.check(cy.signature == first_signature,
                      "per-kernel execution counts differ between "
                      "cycles");
            std::vector<double> gaps_us;
            for (int64_t g : cy.gapsNs)
                gaps_us.push_back(static_cast<double>(g) / 1e3);
            out.check(gaps_us.size() == cy.executions,
                      "one completion gap per execution");
            const double execs = static_cast<double>(cy.executions);
            const Percentile q50 = percentile(gaps_us, 0.50);
            const Percentile q99 = percentile(gaps_us, 0.99);
            ph.add(execs / cy.wallS, cy.cpuS * 1e6 / execs, q50, q99);
            ph.setFactor(ph.factor.size() - 1, f);
            last_wall = cy.wallS;
            if (counting)
                traced_cycles.push_back(std::move(cy));
        } while (static_cast<double>(nowNs() - start) / 1e9 +
                     last_wall / 2 <
                 seconds);
    };

    Series plain;
    runPhase(args.trace ? args.seconds / 2 : args.seconds, false, plain);
    // Lets runs in different processes be compared too.
    std::printf("schedule_search execution-count signature %016llx "
                "(fnv of executions-to-first-bug or executions per "
                "campaign)\n",
                static_cast<unsigned long long>(fnv(first_signature)));
    if (!args.trace) {
        plain.report(out, "cycles", true);
        return;
    }
    clearSpans();
    setTracing(true);
    Series traced;
    runPhase(args.seconds / 2, true, traced);
    setTracing(false);
    Counts total;
    size_t fuzz_execs = 0, coverage = 0, explore_execs = 0,
           explore_redundant = 0;
    for (const Cycle &cy : traced_cycles) {
        total.merge(cy.counts);
        fuzz_execs += cy.fuzzExecutions;
        coverage += cy.coverageStates;
        explore_execs += cy.exploreExecutions;
        explore_redundant += cy.exploreRedundant;
    }
    total.raceResets = total.ops; // fuzzer and explorer reset per run
    total.publish(out);
    const double cycles = static_cast<double>(traced_cycles.size());
    const auto agg = totalAggregates();
    auto span = [&agg](SpanName s) { return agg[size_t(s)]; };
    out.add("fuzz.exec_us",
            static_cast<double>(span(SpanName::FuzzExec).totalNs) / 1e3 /
                static_cast<double>(span(SpanName::FuzzExec).count),
            "us", span(SpanName::FuzzExec).count,
            "time inside the RunProgram callback");
    out.add("fuzz.self_us_per_exec",
            static_cast<double>(span(SpanName::FuzzCampaign).selfNs) /
                1e3 / static_cast<double>(fuzz_execs),
            "us", fuzz_execs, "fuzzRun time outside the callback");
    out.add("fuzz.coverage_per_exec",
            static_cast<double>(coverage) / static_cast<double>(fuzz_execs),
            "ratio", fuzz_execs, "coverage states / executions");
    out.add("explore.execs", static_cast<double>(explore_execs) / cycles,
            "count", explore_execs, "DPOR executions per cycle");
    out.add("explore.redundant",
            static_cast<double>(explore_redundant) / cycles, "count",
            explore_execs, "sleep-set-blocked executions per cycle");
    out.add("explore.self_us_per_exec",
            static_cast<double>(span(SpanName::ExploreCampaign).selfNs) /
                1e3 / static_cast<double>(explore_execs),
            "us", explore_execs, "exploreAll time outside the callback");
    out.add("model.fuzz_self_us_per_op",
            static_cast<double>(span(SpanName::FuzzCampaign).selfNs +
                                span(SpanName::ExploreCampaign).selfNs) /
                1e3 / total.ops,
            "us");
    out.add("model.cpu_us_per_op", median(plain.cpuUs), "us",
            plain.cpuUs.size(), "untraced half");
    out.add("trace.overhead",
            plain.opsAtNominal() / traced.opsAtNominal() - 1.0, "ratio",
            traced.opsPerS.size());
}

// --------------------------------------------------------------------
// soak

namespace
{

/** The 10k-live shape: rate = live / (service x (1 + fanout)). */
load::SoakOptions
soakShape(uint64_t seed)
{
    load::SoakOptions opts;
    opts.connections = hostWorkers();
    opts.targetRps = 6'250;
    opts.durationNs = 1'500 * gotime::kMillisecond;
    opts.serviceTimeNs = 400 * gotime::kMillisecond;
    opts.fanout = 3;
    opts.payloadBytes = 64;
    opts.seed = seed;
    opts.drainTimeoutNs = opts.serviceTimeNs + 10 * gotime::kSecond;
    return opts;
}

/** The soak's socket set-up on its own: poller, listener and one
 *  dialled connection per soak connection, then closed. */
void
soakSocketSetup(uint32_t connections)
{
    RunOptions ro;
    ro.realTime = true;
    const RunReport r = run(
        [connections] {
            netpoll::Poller poller;
            auto ln = poller.listen(0);
            if (!ln)
                goPanic("listen failed");
            WaitGroup wg;
            wg.add(1);
            go([ln, connections, &wg] {
                std::vector<netpoll::TcpConn> accepted;
                for (uint32_t i = 0; i < connections; ++i)
                    accepted.push_back(ln.accept());
                for (auto &c : accepted)
                    c.close();
                wg.done();
            });
            std::vector<netpoll::TcpConn> dialled;
            for (uint32_t i = 0; i < connections; ++i)
                dialled.push_back(poller.dial(ln.port()));
            wg.wait();
            for (auto &c : dialled)
                c.close();
            ln.close();
        },
        ro);
    if (!r.completed)
        throw std::runtime_error("soak socket set-up failed: " +
                                 r.describe());
}

Percentile
histogramQuantile(const obs::LatencyHistogram &h, double q)
{
    const size_t n = h.count();
    return interpolatedQuantile(n, q, 1.0 / 64, [&h, n](size_t rank) {
        return static_cast<double>(h.quantile(
            (static_cast<double>(rank) - 0.5) / static_cast<double>(n)));
    });
}

} // namespace

void
runSoak(const Args &args, Outcome &out)
{
    const load::SoakOptions shape = soakShape(0);
    soakSocketSetup(shape.connections);
    if (setupDone(args, out))
        return;

    uint64_t run_index = 0;
    std::vector<load::SoakResult> traced_results;
    SpeedSampler speed;
    // One window is one soak run.
    auto runPhase = [&](double seconds, Series &ph, bool keep) {
        const int64_t start = nowNs();
        double last_wall = 0;
        do {
            const uint64_t id = run_index++;
            const load::SoakOptions opts =
                soakShape(mix(args.seed * 1000 + id));
            const int64_t t0 = nowNs();
            // runSoak runs on this thread; the speed sampler's CPU is
            // not the soak's.
            const double cpu0 = cpuSeconds(true);
            load::SoakResult res;
            {
                ScopedSpan span(SpanName::SoakRun, id);
                res = load::runSoak(opts);
            }
            const double cpu = cpuSeconds(true) - cpu0;
            const double f = speed.factor(t0, nowNs());
            last_wall = res.wallSeconds;
            // Every arrival is an operation; drops, unanswered requests
            // and connection errors are failures.
            out.attempted += res.requestsSent + res.dropped;
            const uint64_t bad = res.dropped +
                                 (res.requestsSent - res.responses) +
                                 res.connErrors;
            out.failed += bad;
            if (bad != 0 || !res.ok())
                out.failures.push_back(
                    "soak run " + std::to_string(id) + ": sent " +
                    std::to_string(res.requestsSent) + ", answered " +
                    std::to_string(res.responses) + ", dropped " +
                    std::to_string(res.dropped) + ", conn errors " +
                    std::to_string(res.connErrors));
            if (!res.ok() && bad == 0)
                out.fail("soak run " + std::to_string(id) +
                         " did not finish cleanly");
            const double responses =
                std::max<double>(1.0, static_cast<double>(res.responses));
            Percentile q50 = histogramQuantile(res.latency, 0.50);
            Percentile q99 = histogramQuantile(res.latency, 0.99);
            q50.value /= 1e3;
            q99.value /= 1e3;
            ph.add(res.achievedRps, cpu * 1e6 / responses, q50, q99);
            ph.setFactor(ph.factor.size() - 1, f);
            if (keep)
                traced_results.push_back(std::move(res));
        } while (static_cast<double>(nowNs() - start) / 1e9 + last_wall <
                 seconds);
    };

    Series plain;
    runPhase(args.trace ? args.seconds / 2 : args.seconds, plain, false);
    if (!args.trace) {
        plain.report(out, "soak runs", false);
        return;
    }
    const uint64_t mapped0 = stacksMapped(nullptr);
    clearSpans();
    setTracing(true);
    Series traced;
    runPhase(args.seconds / 2, traced, true);
    setTracing(false);
    const uint64_t mapped = stacksMapped(nullptr) - mapped0;
    Counts total;
    double dropped = 0, conn_errors = 0;
    for (const load::SoakResult &res : traced_results) {
        total.ops += static_cast<double>(res.responses);
        total.addRun(res.report.metrics, false, false);
        total.peakLive = std::max(
            total.peakLive, static_cast<double>(res.peakLiveGoroutines));
        dropped += static_cast<double>(res.dropped);
        conn_errors += static_cast<double>(res.connErrors);
    }
    total.publish(out);
    out.add("runtime.stacks_mapped_per_op",
            static_cast<double>(mapped) / std::max(total.ops, 1.0),
            "count", static_cast<uint64_t>(total.ops));
    out.add("load.dropped", dropped, "count", traced_results.size(),
            "summed over the traced soak runs");
    out.add("load.conn_errors", conn_errors, "count",
            traced_results.size(), "summed over the traced soak runs");
    out.add("model.sleeps_per_op", 1.0 + shape.fanout, "count");
    out.add("model.echoes_per_op", 1.0, "count");
    out.add("model.cpu_us_per_op", median(plain.cpuUs), "us",
            plain.cpuUs.size(), "untraced half");
    // Open loop: the traced run cannot go faster, so the overhead is
    // traced over untraced CPU per request, minus 1.
    out.add("trace.overhead",
            traced.scaled(traced.cpuUs, -1) / plain.scaled(plain.cpuUs, -1) -
                1.0,
            "ratio", traced.opsPerS.size());
}

} // namespace perfledger
