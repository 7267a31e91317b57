/**
 * @file
 * Shared types of the ledger benchmark program: command-line arguments, the
 * metric list a workload fills in, and the three workloads.
 */

#ifndef PERFLEDGER_LEDGER_HH
#define PERFLEDGER_LEDGER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfledger
{

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Stop after set-up (run.py times several fresh set-ups). */
    bool setupOnly = false;
    /** CLOCK_MONOTONIC ns at which the launcher spawned us (0 =
     *  unknown: set-up is then timed from main()). */
    int64_t spawnedAtNs = 0;
    /** Directory for the span file of a traced run. */
    std::string outDir = ".";
    /** Repo root, for the committed Table 12 expectation. */
    std::string repoRoot = ".";
};

/** One reported number. samples is the count it was computed from
 *  (0 = not a sample statistic). */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
    std::string note;
};

/** Everything one workload run reports. */
struct Outcome
{
    /** Operations (and correctness checks) attempted / failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few failure descriptions, for the log. */
    std::vector<std::string> failures;

    std::vector<Metric> metrics;

    /** Set-up time measured in this process (s). */
    double setupS = 0;

    void add(const std::string &name, double value,
             const std::string &unit, uint64_t samples = 0,
             const std::string &note = "");
    void fail(const std::string &what);
    void check(bool ok, const std::string &what);
    /** Value of an already added metric (0 when absent). */
    double get(const std::string &name) const;
};

/** User+sys CPU seconds (getrusage) of the process, or of the calling
 *  thread alone. */
double cpuSeconds(bool this_thread = false);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Hook the workload calls when set-up is done: records setupS and,
 *  in set-up-only mode, returns true (the caller then stops). */
bool setupDone(const Args &args, Outcome &out);

// The workloads. Each does its set-up, calls setupDone(), then
// measures for args.seconds. Untraced runs report the end-to-end
// metrics; traced runs split the time into an untraced and a traced
// half and report the layer metrics.
void runProtocolSweep(const Args &args, Outcome &out);
void runScheduleSearch(const Args &args, Outcome &out);
void runSoak(const Args &args, Outcome &out);

/** Unit costs measured by short probes through public functions. */
struct UnitCosts
{
    double switchNs = 0;
    double pingpongNs = 0;
    double spawnJoinNs1k = 0;
    double spawnJoinNs10k = 0;
    double spawnJoinNs100k = 0;
    double bufferedOpNs = 0;
    double selectNs = 0;
    double mutexNs = 0;
    double sleepNs = 0;
    double raceAccessNs = 0;
    double raceSyncNs = 0;
    double raceResetUs = 0;
    double waitgraphEventNs = 0;
    double waitgraphResetUs = 0;
    double echoRttUs = 0;
    double mutateNs = 0;
};

UnitCosts probeUnitCosts();

/** Derive an independent 64-bit stream value (splitmix64). */
uint64_t mix(uint64_t x);

} // namespace perfledger

#endif // PERFLEDGER_LEDGER_HH
