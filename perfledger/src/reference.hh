/**
 * @file
 * The host-speed reference: a fixed piece of work that never changes
 * with golite, timed next to every measurement window so that a
 * window's time can be restated at a fixed reference speed.
 *
 * On a shared host the same binary on the same input reads 20-30%
 * faster or slower from one minute to the next as neighbours come
 * and go, and the slowdown shows in CPU time too (the core is slower,
 * not descheduled). The reference does the kind of work golite's
 * dispatch path does — a glibc swapcontext (which makes a system
 * call), a call through std::function, a little hashing and a small
 * heap allocation per switch — so that it slows down with it. (A
 * cache-heavy reference, random updates over 4 MiB, tracks golite's
 * slowdowns poorly.)
 *
 * It uses only glibc and the standard library, never golite, so a
 * change to golite cannot move it.
 */

#ifndef PERFLEDGER_REFERENCE_HH
#define PERFLEDGER_REFERENCE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>
#include <ucontext.h>
#include <utility>
#include <vector>

#include "spans.hh"
#include "stats.hh"

namespace perfledger
{

/** Nanoseconds one reference pass takes on the nominal host (about
 *  a 4-vCPU Xeon VM at rest). A window measured while
 *  a pass takes longer is scaled by the same factor. Fixed: changing
 *  it rescales every result. */
constexpr double kReferenceNominalNs = 1.5e6;

namespace detail
{

struct RefPingPong
{
    ucontext_t main;
    ucontext_t fiber;
    uint64_t acc = 0;
    int rounds = 0;
    std::vector<uint32_t> table = std::vector<uint32_t>(8192, 1);
    std::vector<char> stack = std::vector<char>(64 * 1024);
};

inline void
refFiberBody(uint32_t lo, uint32_t hi)
{
    auto *st = reinterpret_cast<RefPingPong *>(
        (static_cast<uintptr_t>(hi) << 32) | lo);
    std::function<uint64_t(uint64_t)> step = [st](uint64_t v) {
        uint32_t &cell = st->table[v & 8191];
        cell = cell * 33 + static_cast<uint32_t>(v >> 7);
        return v * 6364136223846793005ull + cell;
    };
    for (int i = 0; i < st->rounds; ++i) {
        for (int j = 0; j < 8; ++j)
            st->acc = step(st->acc);
        void *p = std::malloc(48 + (st->acc & 192));
        if (p != nullptr)
            static_cast<volatile char *>(p)[0] = static_cast<char>(st->acc);
        std::free(p);
        swapcontext(&st->fiber, &st->main);
    }
}

} // namespace detail

/** Time one fixed reference pass on the calling thread (ns): a glibc
 *  ucontext ping-pong whose sides do a little hashing and a small
 *  allocation per switch, the shape of a golite dispatch. */
inline double
referencePassNs()
{
    constexpr int kRounds = 2000;
    thread_local detail::RefPingPong st;
    st.rounds = kRounds;
    getcontext(&st.fiber);
    st.fiber.uc_stack.ss_sp = st.stack.data();
    st.fiber.uc_stack.ss_size = st.stack.size();
    st.fiber.uc_link = &st.main;
    const auto ptr = reinterpret_cast<uintptr_t>(&st);
    makecontext(&st.fiber, reinterpret_cast<void (*)()>(detail::refFiberBody),
                2, static_cast<uint32_t>(ptr),
                static_cast<uint32_t>(ptr >> 32));
    const int64_t t0 = nowNs();
    for (int i = 0; i <= kRounds; ++i)
        swapcontext(&st.main, &st.fiber);
    return static_cast<double>(nowNs() - t0);
}

/** Median of @p passes reference passes (ns). */
inline double
referenceNs(int passes = 3)
{
    std::vector<double> v;
    for (int i = 0; i < passes; ++i)
        v.push_back(referencePassNs());
    return median(v);
}

/**
 * Samples host speed on a background thread while a single-threaded
 * workload runs on another core: one reference pass every 20 ms. A
 * window's factor is then the median over the passes inside it,
 * which follows drift within the window that a measurement at its
 * ends misses. (Workloads that keep every core busy measure at the
 * window's ends instead, on every worker.)
 */
class SpeedSampler
{
  public:
    SpeedSampler()
        : thread_([this] {
              while (!stop_.load()) {
                  const double ns = referencePassNs();
                  {
                      std::lock_guard<std::mutex> lock(mu_);
                      samples_.push_back({nowNs(), ns});
                  }
                  std::this_thread::sleep_for(std::chrono::milliseconds(20));
              }
          })
    {
    }

    ~SpeedSampler()
    {
        stop_.store(true);
        thread_.join();
    }

    SpeedSampler(const SpeedSampler &) = delete;
    SpeedSampler &operator=(const SpeedSampler &) = delete;

    /** Reference time over nominal, median over the passes that ended
     *  in [from_ns, to_ns); measured on the spot if there were none. */
    double
    factor(int64_t from_ns, int64_t to_ns)
    {
        std::vector<double> v;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (const auto &[t, ns] : samples_)
                if (t >= from_ns && t < to_ns)
                    v.push_back(ns);
        }
        return (v.empty() ? referenceNs() : median(v)) / kReferenceNominalNs;
    }

  private:
    std::mutex mu_;
    std::vector<std::pair<int64_t, double>> samples_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace perfledger

#endif // PERFLEDGER_REFERENCE_HH
