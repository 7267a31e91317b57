/**
 * @file
 * The benchmark's own arithmetic, kept free of golite so the
 * self-test (tests/selftest.cc) can check it in isolation:
 *
 *  - the percentile rule (report the highest percentile at or below
 *    the requested one that still has at least kTailMin samples
 *    beyond it, with the sample count),
 *  - medians,
 *  - completion-to-completion gaps, whose sum is the campaign time,
 *  - span self time (a span minus its children),
 *  - within-bucket interpolation of a bucketed histogram quantile,
 *  - the metric-name alphabet [A-Za-z0-9_.-].
 */

#ifndef PERFLEDGER_STATS_HH
#define PERFLEDGER_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace perfledger
{

/** Samples that must lie beyond a reported percentile. */
constexpr size_t kTailMin = 10;

/** A percentile as reported: value, the quantile it really is, and
 *  how many samples it came from. valid is false when there are too
 *  few samples for any percentile to have kTailMin beyond it. */
struct Percentile
{
    double value = 0;
    double quantile = 0;
    size_t samples = 0;
    bool valid = false;
};

/**
 * Nearest-rank rank (1-based) of the highest percentile <= @p want
 * over @p n samples that leaves at least kTailMin samples beyond it;
 * 0 when n <= kTailMin.
 */
inline size_t
tailRank(size_t n, double want)
{
    if (n <= kTailMin)
        return 0;
    size_t rank = static_cast<size_t>(
        std::ceil(want * static_cast<double>(n) - 1e-9));
    rank = std::clamp<size_t>(rank, 1, n - kTailMin);
    return rank;
}

/** The percentile rule over raw samples (reorders @p samples). */
template <typename T>
Percentile
percentile(std::vector<T> &samples, double want)
{
    Percentile p;
    p.samples = samples.size();
    const size_t rank = tailRank(samples.size(), want);
    if (rank == 0)
        return p;
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    p.value = static_cast<double>(*nth);
    p.quantile =
        static_cast<double>(rank) / static_cast<double>(samples.size());
    p.valid = true;
    return p;
}

/** Median (mean of the middle two for even counts); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/**
 * Completion-to-completion latency of a serial campaign: each
 * operation's latency is the time since the previous one completed
 * (the first one's, since the campaign started), so work done
 * between operations — mutation, replay set-up, coverage merge —
 * lands in the next operation and the gaps sum to the campaign time.
 */
class CompletionGaps
{
  public:
    explicit CompletionGaps(int64_t start_ns)
        : start_(start_ns), last_(start_ns)
    {
    }

    void
    complete(int64_t now_ns)
    {
        gaps_.push_back(now_ns - last_);
        last_ = now_ns;
    }

    /** Start to last completion. */
    int64_t campaignNs() const { return last_ - start_; }
    const std::vector<int64_t> &gaps() const { return gaps_; }

  private:
    int64_t start_;
    int64_t last_;
    std::vector<int64_t> gaps_;
};

/** One closed span: [start, end) with an optional parent. */
struct SpanTimes
{
    int64_t start = 0;
    int64_t end = 0;
    /** Index of the enclosing span in the same list, or -1. */
    int64_t parent = -1;
};

/** Self time of each span: its duration minus its direct children's
 *  durations. */
inline std::vector<int64_t>
selfTimes(const std::vector<SpanTimes> &spans)
{
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    for (const SpanTimes &s : spans)
        if (s.parent >= 0)
            self[static_cast<size_t>(s.parent)] -= s.end - s.start;
    return self;
}

/**
 * Quantile @p want of a bucketed histogram, interpolated inside the
 * bucket that holds it so that the estimate moves with the data
 * instead of snapping to a bucket bound. @p upper_at(rank) must
 * return the upper bound of the bucket holding the rank-th smallest
 * of @p n samples (1-based); buckets are at most @p rel_width of their
 * upper bound wide. Uses the percentile rule for the rank.
 */
inline Percentile
interpolatedQuantile(size_t n, double want, double rel_width,
                     const std::function<double(size_t)> &upper_at)
{
    Percentile p;
    p.samples = n;
    const size_t rank = tailRank(n, want);
    if (rank == 0)
        return p;
    const double upper = upper_at(rank);
    // First and last rank in the same bucket (upper_at is monotone).
    size_t lo = 1, hi = rank;
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (upper_at(mid) < upper)
            lo = mid + 1;
        else
            hi = mid;
    }
    const size_t first = lo;
    lo = rank;
    hi = n;
    while (lo < hi) {
        const size_t mid = lo + (hi - lo + 1) / 2;
        if (upper_at(mid) > upper)
            hi = mid - 1;
        else
            lo = mid;
    }
    const size_t last = lo;
    double lower = upper - upper * rel_width;
    if (first > 1)
        lower = std::max(lower, upper_at(first - 1));
    const double within =
        (static_cast<double>(rank - first) + 0.5) /
        static_cast<double>(last - first + 1);
    p.value = lower + (upper - lower) * within;
    p.quantile = static_cast<double>(rank) / static_cast<double>(n);
    p.valid = true;
    return p;
}

/** Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a
 *  letter or digit. */
inline bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

} // namespace perfledger

#endif // PERFLEDGER_STATS_HH
