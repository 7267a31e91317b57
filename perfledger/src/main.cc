/**
 * @file
 * ledger: one benchmark run of one workload.
 *
 *   ledger --workload protocol_sweep|schedule_search|soak --seed N
 *          --seconds S --trace 0|1 [--setup-only]
 *          [--spawned-at-ns T] [--out-dir D] [--repo-root R]
 *
 * Prints one line per metric (name, value, unit, sample count) and,
 * last, a JSON object with correct/attempted/failed and every metric.
 * perfledger/run.py builds this binary, times fresh set-ups and
 * reduces that object to the metrics BENCHMARK.json declares.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <malloc.h>
#include <stdexcept>
#include <string>
#include <sys/resource.h>

#include "ledger.hh"
#include "reference.hh"
#include "spans.hh"

#ifndef PERFLEDGER_BUILD_TYPE
#define PERFLEDGER_BUILD_TYPE "unknown"
#endif

// End-to-end numbers only come from optimised, uninstrumented code.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFLEDGER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFLEDGER_SANITIZED 1
#endif
#endif
#if defined(__OPTIMIZE__) && !defined(PERFLEDGER_SANITIZED)
constexpr bool kMeasurableBuild = true;
#else
constexpr bool kMeasurableBuild = false;
#endif

namespace perfledger
{

namespace
{

int64_t g_mainNs = 0;

} // namespace

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
cpuSeconds(bool this_thread)
{
    struct rusage ru;
    getrusage(this_thread ? RUSAGE_THREAD : RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives exec and
    // so reports the launcher's footprint when that was larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

void
Outcome::add(const std::string &name, double value,
             const std::string &unit, uint64_t samples,
             const std::string &note)
{
    if (!validMetricName(name))
        throw std::logic_error("invalid metric name '" + name + "'");
    for (Metric &m : metrics)
        if (m.name == name) {
            m = {name, value, unit, samples, note};
            return;
        }
    metrics.push_back({name, value, unit, samples, note});
}

void
Outcome::fail(const std::string &what)
{
    failed++;
    if (failures.size() < 20)
        failures.push_back(what);
}

void
Outcome::check(bool ok, const std::string &what)
{
    attempted++;
    if (!ok)
        fail(what);
}

double
Outcome::get(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return m.value;
    return 0;
}

bool
setupDone(const Args &args, Outcome &out)
{
    const int64_t now = nowNs();
    out.setupS = static_cast<double>(
                     now - (args.spawnedAtNs > 0 ? args.spawnedAtNs
                                                 : g_mainNs)) /
                 1e9;
    return args.setupOnly;
}

namespace
{

/** A per-layer metric as BENCHMARK.json declares it. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric a traced run reports, in BENCHMARK.json
 *  order. Metrics a workload bypasses read 0. */
constexpr LayerMetric kLayers[] = {
    {"runtime.switch_ns", "ns"},
    {"runtime.pingpong_ns", "ns"},
    {"runtime.dispatches_per_op", "count"},
    {"runtime.switches_per_op", "count"},
    {"runtime.parks_per_op", "count"},
    {"runtime.spawn_join_ns_1k", "ns"},
    {"runtime.spawns_per_op", "count"},
    {"runtime.peak_live", "count"},
    {"runtime.stacks_mapped_per_op", "count"},
    {"runtime.spawn_join_ns_10k", "ns"},
    {"runtime.spawn_join_ns_100k", "ns"},
    {"channel.buffered_op_ns", "ns"},
    {"channel.select_ns", "ns"},
    {"channel.ops_per_op", "count"},
    {"sync.mutex_ns", "ns"},
    {"sync.lock_ops_per_op", "count"},
    {"gotime.sleep_ns", "ns"},
    {"race.access_ns", "ns"},
    {"race.sync_ns", "ns"},
    {"race.mem_accesses_per_op", "count"},
    {"race.reset_us", "us"},
    {"waitgraph.event_ns", "ns"},
    {"waitgraph.reset_us", "us"},
    {"netpoll.echo_rtt_us", "us"},
    {"load.dropped", "count"},
    {"load.conn_errors", "count"},
    {"parallel.setup_s", "s"},
    {"parallel.run_s", "s"},
    {"parallel.merge_s", "s"},
    {"parallel.busy_frac", "ratio"},
    {"fuzz.exec_us", "us"},
    {"fuzz.self_us_per_exec", "us"},
    {"fuzz.mutate_ns", "ns"},
    {"fuzz.coverage_per_exec", "ratio"},
    {"explore.execs", "count"},
    {"explore.redundant", "count"},
    {"explore.self_us_per_exec", "us"},
    {"trace.overhead", "ratio"},
    {"accounted_share", "ratio"},
};

/**
 * Fill in the probed unit costs (keeping workload-measured reset
 * costs) and the accounted share: the sum over layers of count per op
 * x unit cost, over the untraced CPU per op.
 */
void
addLayerModel(Outcome &out, const UnitCosts &c)
{
    out.add("runtime.switch_ns", c.switchNs, "ns", 0, "probe");
    out.add("runtime.pingpong_ns", c.pingpongNs, "ns", 0, "probe");
    out.add("runtime.spawn_join_ns_1k", c.spawnJoinNs1k, "ns", 0,
            "probe, Random policy");
    out.add("runtime.spawn_join_ns_10k", c.spawnJoinNs10k, "ns", 0,
            "probe, Random policy");
    out.add("runtime.spawn_join_ns_100k", c.spawnJoinNs100k, "ns", 0,
            "probe, Random policy");
    out.add("channel.buffered_op_ns", c.bufferedOpNs, "ns", 0, "probe");
    out.add("channel.select_ns", c.selectNs, "ns", 0, "probe");
    out.add("sync.mutex_ns", c.mutexNs, "ns", 0, "probe");
    out.add("gotime.sleep_ns", c.sleepNs, "ns", 0,
            "probe, virtual time");
    out.add("race.access_ns", c.raceAccessNs, "ns", 0, "probe");
    out.add("race.sync_ns", c.raceSyncNs, "ns", 0, "probe");
    out.add("waitgraph.event_ns", c.waitgraphEventNs, "ns", 0, "probe");
    out.add("netpoll.echo_rtt_us", c.echoRttUs, "us", 0,
            "probe, loopback");
    out.add("fuzz.mutate_ns", c.mutateNs, "ns", 0, "probe");
    const double race_reset =
        out.get("race.reset_us") > 0 ? out.get("race.reset_us")
                                     : c.raceResetUs;
    const double wg_reset = out.get("waitgraph.reset_us") > 0
                                ? out.get("waitgraph.reset_us")
                                : c.waitgraphResetUs;
    if (out.get("race.reset_us") == 0)
        out.add("race.reset_us", race_reset, "us", 0,
                "probe around threadLocalDetector()");
    if (out.get("waitgraph.reset_us") == 0)
        out.add("waitgraph.reset_us", wg_reset, "us", 0,
                "probe around threadLocalWaitgraphDetector()");

    // The spawn/join and sleep probes each include one dispatch of the
    // goroutine, which dispatches_per_op already charges.
    const double spawn_ns = std::max(0.0, c.spawnJoinNs1k - c.switchNs);
    const double sleep_ns = std::max(0.0, c.sleepNs - c.switchNs);
    const double accounted_us =
        (out.get("runtime.dispatches_per_op") * c.switchNs +
         out.get("runtime.spawns_per_op") * spawn_ns +
         out.get("channel.ops_per_op") * c.bufferedOpNs +
         out.get("sync.lock_ops_per_op") * c.mutexNs +
         out.get("race.mem_accesses_per_op") * c.raceAccessNs +
         out.get("model.race_sync_per_op") * c.raceSyncNs +
         out.get("model.waitgraph_events_per_op") * c.waitgraphEventNs +
         out.get("model.sleeps_per_op") * sleep_ns) /
            1e3 +
        out.get("model.race_resets_per_op") * race_reset +
        out.get("model.waitgraph_resets_per_op") * wg_reset +
        out.get("model.echoes_per_op") * c.echoRttUs +
        out.get("model.fuzz_self_us_per_op");
    const double cpu = out.get("model.cpu_us_per_op");
    out.add("accounted_share", cpu > 0 ? accounted_us / cpu : 0, "ratio",
            0, "sum of count/op x unit cost over untraced CPU/op");
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: ledger --workload protocol_sweep|"
                 "schedule_search|soak --seed N --seconds S "
                 "--trace 0|1 [--setup-only] [--spawned-at-ns T] "
                 "[--out-dir D] [--repo-root R]\n");
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--spawned-at-ns")
            a.spawnedAtNs = std::strtoll(v, nullptr, 10);
        else if (k == "--out-dir")
            a.outDir = v;
        else if (k == "--repo-root")
            a.repoRoot = v;
        else
            return false;
    }
    return !a.workload.empty() && a.seconds > 0;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch == '\n' ? ' ' : ch;
    }
    return out;
}

} // namespace

} // namespace perfledger

int
main(int argc, char **argv)
{
    using namespace perfledger;
    g_mainNs = nowNs();
    // glibc raises its mmap threshold when a thread frees a mapped
    // block, so with several threads whether a large block is mapped
    // or comes from an arena (and so the peak RSS) depends on which
    // thread frees first: +-10% from run to run. Fixing the threshold
    // at the top of glibc's dynamic range, where it settles anyway,
    // makes peak RSS a function of the program's allocations alone.
    mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    if (!kMeasurableBuild && !args.trace && !args.setupOnly) {
        std::fprintf(stderr,
                     "ledger: refusing to report end-to-end numbers from "
                     "an unoptimised or sanitizer build (%s)\n",
                     PERFLEDGER_BUILD_TYPE);
        return 3;
    }

    Outcome out;
    try {
        if (args.workload == "protocol_sweep")
            runProtocolSweep(args, out);
        else if (args.workload == "schedule_search")
            runScheduleSearch(args, out);
        else if (args.workload == "soak")
            runSoak(args, out);
        else {
            usage();
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    if (args.setupOnly) {
        std::printf("setup_s %.9f %.6f\n", out.setupS,
                    referenceNs() / kReferenceNominalNs);
        return 0;
    }

    if (!args.trace) {
        out.add("error_rate",
                static_cast<double>(out.failed) /
                    static_cast<double>(std::max<uint64_t>(out.attempted,
                                                           1)),
                "ratio", out.attempted, "failed / attempted");
        out.add("peak_rss_mb", peakRssMb(), "MB", 0, "VmHWM");
        out.add("setup_s", out.setupS, "s", 1,
                "this process, raw (run.py reports fresh set-ups)");
    } else {
        addLayerModel(out, probeUnitCosts());
        const std::string path = args.outDir + "/spans-" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".json";
        if (writeSpans(path))
            std::printf("spans written to %s\n", path.c_str());
    }

    for (const std::string &f : out.failures)
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("%s (seed %llu, %s build, %s)\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                PERFLEDGER_BUILD_TYPE, __VERSION__);
    for (const Metric &m : out.metrics)
        std::printf("  %-34s %16.6f %-6s n=%-9llu %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples),
                    m.note.c_str());

    std::string json = "{\"correct\": ";
    json += out.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"build\": {\"type\": \"" +
            jsonEscape(PERFLEDGER_BUILD_TYPE) + "\", \"compiler\": \"" +
            jsonEscape(__VERSION__) + "\", \"measurable\": " +
            (kMeasurableBuild ? "true" : "false") + "}";
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const std::string &name, double value,
                    const std::string &unit, uint64_t samples) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        json += std::string(first ? "" : ", ") + "\"" + name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
                "\", \"samples\": " + std::to_string(samples) + "}";
        first = false;
    };
    if (args.trace) {
        for (const LayerMetric &l : kLayers) {
            bool seen = false;
            uint64_t samples = 0;
            for (const Metric &m : out.metrics)
                if (m.name == l.name) {
                    seen = true;
                    samples = m.samples;
                }
            if (!seen)
                std::printf("  %-34s %16.6f %-6s bypassed by %s\n", l.name,
                            0.0, l.unit, args.workload.c_str());
            emit(l.name, out.get(l.name), l.unit, samples);
        }
    } else {
        for (const Metric &m : out.metrics)
            emit(m.name, m.value, m.unit, m.samples);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
