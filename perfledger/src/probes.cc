/**
 * @file
 * Unit-cost probes for the traced run: each one drives a single
 * layer through its public functions for a few milliseconds, several
 * times (five unless noted), and keeps the median cost per operation.
 */

#include <string>

#include "corpus/bug.hh"
#include "fuzz/fuzzer.hh"
#include "golite/golite.hh"
#include "ledger.hh"
#include "parallel/sweep.hh"
#include "spans.hh"

namespace perfledger
{

namespace
{

using namespace golite;

/** Median over @p reps repetitions of ns per op of @p body, which
 *  runs @p ops operations. */
template <typename F>
double
perOpNs(double ops, F &&body, int reps = 5)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i) {
        const int64_t t0 = nowNs();
        body();
        v.push_back(static_cast<double>(nowNs() - t0) / ops);
    }
    return median(v);
}

double
switchNs()
{
    constexpr int kYields = 20000;
    RunOptions ro;
    ro.policy = SchedPolicy::Fifo;
    return perOpNs(2.0 * kYields, [&] {
        run(
            [] {
                go([] {
                    for (int i = 0; i < kYields; ++i)
                        yield();
                });
                for (int i = 0; i < kYields; ++i)
                    yield();
            },
            ro);
    });
}

double
pingpongNs()
{
    constexpr int kRounds = 5000;
    return perOpNs(kRounds, [] {
        run([] {
            Chan<int> ping = makeChan<int>();
            Chan<int> pong = makeChan<int>();
            go([=] {
                for (int i = 0; i < kRounds; ++i)
                    pong.send(ping.recv().value + 1);
            });
            for (int i = 0; i < kRounds; ++i) {
                ping.send(i);
                pong.recv();
            }
        });
    });
}

/** Spawn @p n goroutines that all sit in the ready set under the
 *  Random policy, join them, @p runs times per repetition. */
double
spawnJoinNs(int n, int runs, int reps)
{
    RunOptions ro;
    ro.policy = SchedPolicy::Random;
    return perOpNs(
        static_cast<double>(n) * runs,
        [&] {
            for (int r = 0; r < runs; ++r) {
                run(
                    [n] {
                        WaitGroup wg;
                        wg.add(n);
                        for (int i = 0; i < n; ++i)
                            go([&wg] { wg.done(); });
                        wg.wait();
                    },
                    ro);
            }
        },
        reps);
}

double
bufferedOpNs()
{
    constexpr int kItems = 20000;
    return perOpNs(kItems, [] {
        run([] {
            Chan<int> ch = makeChan<int>(16);
            go([=] {
                for (int i = 0; i < kItems; ++i)
                    ch.send(i);
                ch.close();
            });
            while (ch.recv().ok) {
            }
        });
    });
}

double
selectNs()
{
    constexpr int kSelects = 20000;
    return perOpNs(kSelects, [] {
        run([] {
            Chan<int> a = makeChan<int>(1);
            Chan<int> b = makeChan<int>(1);
            for (int i = 0; i < kSelects; ++i) {
                a.trySend(1);
                b.trySend(2);
                Select()
                    .recv<int>(a, [](int, bool) {})
                    .recv<int>(b, [](int, bool) {})
                    .run();
            }
        });
    });
}

double
mutexNs()
{
    constexpr int kPairs = 50000;
    return perOpNs(kPairs, [] {
        run([] {
            Mutex mu;
            for (int i = 0; i < kPairs; ++i) {
                mu.lock();
                mu.unlock();
            }
        });
    });
}

double
sleepNs()
{
    // Virtual-time sleeps: timer push, fire, park and unpark.
    constexpr int kSleepers = 2000;
    return perOpNs(kSleepers, [] {
        run([] {
            WaitGroup wg;
            wg.add(kSleepers);
            for (int i = 0; i < kSleepers; ++i)
                go([&wg, i] {
                    gotime::sleep((i % 97 + 1) * gotime::kMillisecond);
                    wg.done();
                });
            wg.wait();
        });
    });
}

/** Two goroutines taking turns under one lock, each touching a block
 *  of addresses per turn: accesses hit both the same-epoch fast path
 *  and the cross-goroutine ordering check. */
double
raceAccessNs()
{
    constexpr int kTurns = 2000;
    constexpr int kAddrs = 32;
    static int cells[kAddrs];
    race::Detector det(4);
    int lock = 0;
    return perOpNs(2.0 * kTurns * kAddrs, [&] {
        det.reset();
        det.goroutineCreated(0, 1);
        det.goroutineCreated(0, 2);
        for (int t = 0; t < kTurns; ++t) {
            const uint64_t gid = 1 + (t & 1);
            det.acquire(&lock, gid);
            for (int a = 0; a < kAddrs; ++a) {
                det.onMemAccess(&cells[a], "cell", gid, false);
                det.onMemAccess(&cells[a], "cell", gid, true);
            }
            det.release(&lock, gid);
        }
    });
}

double
raceSyncNs()
{
    constexpr int kPairs = 20000;
    race::Detector det(4);
    int lock = 0;
    return perOpNs(2.0 * kPairs, [&] {
        det.reset();
        det.goroutineCreated(0, 1);
        det.goroutineCreated(0, 2);
        for (int i = 0; i < kPairs; ++i) {
            const uint64_t gid = 1 + (i & 1);
            det.acquire(&lock, gid);
            det.release(&lock, gid);
        }
    });
}

/** threadLocalDetector() reset cost after a raced kernel run
 *  dirtied the detector, as between sweep jobs. */
template <typename Reset>
double
resetUs(corpus::Behavior behavior, Reset reset)
{
    const corpus::BugCase *bug = nullptr;
    for (const corpus::BugCase &b : corpus::corpus())
        if (b.info.behavior == behavior) {
            bug = &b;
            break;
        }
    std::vector<double> v;
    for (int i = 0; i < 200; ++i) {
        RunOptions ro;
        ro.seed = static_cast<uint64_t>(i);
        const int64_t t0 = nowNs();
        Subscriber *det = reset();
        v.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        ro.subscribers.push_back(det);
        (void)bug->run(corpus::Variant::Buggy, ro);
    }
    return median(v);
}

double
waitgraphEventNs()
{
    constexpr int kGoroutines = 2000;
    waitgraph::Detector det;
    const std::string label = "probe";
    int lock = 0;
    // Per goroutine: create, lock, park, unpark, unlock, finish.
    return perOpNs(6.0 * kGoroutines, [&] {
        det.reset();
        for (int g = 1; g <= kGoroutines; ++g) {
            const uint64_t gid = static_cast<uint64_t>(g);
            det.goroutineCreated(0, gid, label);
            det.lockAcquired(&lock, gid, true);
            det.parked(gid, WaitReason::ChanRecv, &lock);
            det.unparked(gid);
            det.lockReleased(&lock, gid, true);
            det.goroutineFinished(gid);
        }
    });
}

double
echoRttUs()
{
    constexpr int kRounds = 2000;
    RunOptions ro;
    ro.realTime = true;
    return perOpNs(kRounds, [&ro] {
        run(
            [] {
                netpoll::Poller poller;
                auto ln = poller.listen(0);
                go([ln] {
                    auto conn = ln.accept();
                    std::string buf;
                    while (conn.read(buf).ok())
                        if (!conn.write(buf).ok())
                            break;
                    conn.close();
                });
                auto conn = poller.dial(ln.port());
                std::string buf;
                for (int i = 0; i < kRounds; ++i) {
                    conn.write("ping-pong-frame!");
                    size_t got = 0;
                    while (got < 16 && conn.read(buf).ok())
                        got += buf.size();
                }
                conn.close();
                ln.close();
            },
            ro);
    }) / 1e3;
}

double
mutateNs()
{
    // Record one schedule of a multi-goroutine kernel, then mutate it.
    const corpus::BugCase *bug = corpus::findBug("etcd-6632");
    if (bug == nullptr)
        bug = &corpus::corpus().front();
    ScheduleTrace trace;
    RunOptions ro;
    ro.recordTrace = &trace;
    (void)bug->run(corpus::Variant::Buggy, ro);
    constexpr int kMutations = 20000;
    Rng rng(7);
    size_t sink = 0;
    const double ns = perOpNs(kMutations, [&] {
        for (int i = 0; i < kMutations; ++i)
            sink += fuzz::mutateTrace(trace, rng).size();
    });
    return sink == SIZE_MAX ? 0 : ns;
}

} // namespace

UnitCosts
probeUnitCosts()
{
    UnitCosts c;
    c.switchNs = switchNs();
    c.pingpongNs = pingpongNs();
    c.spawnJoinNs1k = spawnJoinNs(1000, 10, 5);
    c.spawnJoinNs10k = spawnJoinNs(10000, 1, 5);
    c.spawnJoinNs100k = spawnJoinNs(100000, 1, 3);
    c.bufferedOpNs = bufferedOpNs();
    c.selectNs = selectNs();
    c.mutexNs = mutexNs();
    c.sleepNs = sleepNs();
    c.raceAccessNs = raceAccessNs();
    c.raceSyncNs = raceSyncNs();
    c.raceResetUs = resetUs(corpus::Behavior::NonBlocking, [] {
        return static_cast<Subscriber *>(
            &parallel::threadLocalDetector(4));
    });
    c.waitgraphEventNs = waitgraphEventNs();
    c.waitgraphResetUs = resetUs(corpus::Behavior::Blocking, [] {
        return static_cast<Subscriber *>(
            &parallel::threadLocalWaitgraphDetector());
    });
    c.echoRttUs = echoRttUs();
    c.mutateNs = mutateNs();
    return c;
}

} // namespace perfledger
