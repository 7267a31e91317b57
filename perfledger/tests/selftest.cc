/**
 * @file
 * Self-test of the benchmark's own arithmetic (src/stats.hh and the
 * span aggregates). Exits non-zero on the first failed check.
 * Run with `python3 perfledger/run.py --selftest`.
 */

#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "spans.hh"
#include "stats.hh"

using namespace perfledger;

namespace
{

int g_failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,  \
                         __LINE__, #cond);                               \
            g_failures++;                                                \
        }                                                                \
    } while (0)

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    return v;
}

void
percentileRule()
{
    // 1000 samples: p99 is rank 990, exactly ten beyond it.
    auto v = iota(1000);
    Percentile p = percentile(v, 0.99);
    CHECK(p.valid && p.value == 990 && p.samples == 1000);
    CHECK(p.quantile == 0.99);

    // 500 samples: p99 would leave five beyond it, so the rule backs
    // off to rank 490 (quantile 0.98).
    v = iota(500);
    p = percentile(v, 0.99);
    CHECK(p.valid && p.value == 490 && p.samples == 500);
    CHECK(p.quantile == 0.98);

    // Median is unaffected when the tail is large.
    v = iota(101);
    p = percentile(v, 0.50);
    CHECK(p.value == 51);

    // Ten or fewer samples: no percentile has ten beyond it.
    v = iota(10);
    p = percentile(v, 0.50);
    CHECK(!p.valid && p.samples == 10);

    // Eleven samples: only the minimum qualifies.
    v = iota(11);
    p = percentile(v, 0.99);
    CHECK(p.valid && p.value == 1);

    // Order of the input does not matter.
    std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10,
                                    11, 12, 20, 19, 18, 17, 16, 15, 14,
                                    13};
    p = percentile(shuffled, 0.5);
    CHECK(p.value == 10);
}

void
medianRule()
{
    CHECK(median({}) == 0);
    CHECK(median({3}) == 3);
    CHECK(median({4, 1, 3}) == 3);
    CHECK(median({4, 1, 3, 2}) == 2.5);
}

void
completionGaps()
{
    CompletionGaps g(1000);
    const int64_t completions[] = {1010, 1015, 1115, 1116, 2000};
    for (int64_t t : completions)
        g.complete(t);
    CHECK(g.gaps().size() == 5);
    CHECK(g.gaps()[0] == 10 && g.gaps()[2] == 100);
    const int64_t sum =
        std::accumulate(g.gaps().begin(), g.gaps().end(), int64_t{0});
    CHECK(sum == g.campaignNs());
    CHECK(g.campaignNs() == 1000);
}

void
spanSelfTime()
{
    // root [0,100) with children [10,30) and [40,90); the second has
    // a grandchild [50,60).
    const std::vector<SpanTimes> spans = {
        {0, 100, -1}, {10, 30, 0}, {40, 90, 0}, {50, 60, 2}};
    const auto self = selfTimes(spans);
    CHECK(self[0] == 30);
    CHECK(self[1] == 20);
    CHECK(self[2] == 40);
    CHECK(self[3] == 10);
    CHECK(std::accumulate(self.begin(), self.end(), int64_t{0}) == 100);

    // The online aggregates of SpanLog agree.
    SpanLog log;
    log.begin(SpanName::FuzzCampaign, 1, 0);
    log.begin(SpanName::FuzzExec, 1, 10);
    log.end(30);
    log.begin(SpanName::FuzzExec, 1, 40);
    log.begin(SpanName::KernelRun, 1, 50);
    log.end(60);
    log.end(90);
    log.end(100);
    const auto &agg = log.aggregates();
    CHECK(agg[size_t(SpanName::FuzzCampaign)].selfNs == 30);
    CHECK(agg[size_t(SpanName::FuzzCampaign)].totalNs == 100);
    CHECK(agg[size_t(SpanName::FuzzExec)].count == 2);
    CHECK(agg[size_t(SpanName::FuzzExec)].totalNs == 70);
    CHECK(agg[size_t(SpanName::FuzzExec)].selfNs == 60);
    CHECK(agg[size_t(SpanName::KernelRun)].selfNs == 10);
    CHECK(log.records().size() == 4);
    CHECK(log.records()[3].parent == 2 && log.records()[1].parent == 0);
}

void
histogramInterpolation()
{
    // Fake bucketed histogram: 100 samples, ranks 1..40 in the bucket
    // (60, 64], ranks 41..100 in (120, 128].
    auto upper_at = [](size_t rank) { return rank <= 40 ? 64.0 : 128.0; };
    Percentile p = interpolatedQuantile(100, 0.5, 1.0 / 16, upper_at);
    CHECK(p.valid && p.samples == 100);
    // Rank 50 is the 10th of 60 in (120, 128].
    CHECK(p.value > 120 && p.value < 128);
    const double expect = 120 + 8 * (9.5 / 60);
    CHECK(std::abs(p.value - expect) < 1e-9);
    // Moving the data inside a bucket moves the estimate.
    auto upper_at2 = [](size_t rank) { return rank <= 45 ? 64.0 : 128.0; };
    Percentile q = interpolatedQuantile(100, 0.5, 1.0 / 16, upper_at2);
    CHECK(q.value < p.value);
    // The percentile rule applies to the rank.
    Percentile tail = interpolatedQuantile(200, 0.99, 1.0 / 16, upper_at);
    CHECK(tail.quantile == 0.95);
}

void
metricNames()
{
    CHECK(validMetricName("ops_per_s"));
    CHECK(validMetricName("runtime.spawn_join_ns_100k"));
    CHECK(validMetricName("a-b.c_d9"));
    CHECK(validMetricName("9lives"));
    CHECK(!validMetricName(""));
    CHECK(!validMetricName("_leading"));
    CHECK(!validMetricName(".leading"));
    CHECK(!validMetricName("has space"));
    CHECK(!validMetricName("slash/unit"));
    CHECK(!validMetricName("quote\""));
    CHECK(!validMetricName(std::string(65, 'a')));
    CHECK(validMetricName(std::string(64, 'a')));
}

} // namespace

int
main()
{
    percentileRule();
    medianRule();
    completionGaps();
    spanSelfTime();
    histogramInterpolation();
    metricNames();
    if (g_failures != 0) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("selftest: all checks passed\n");
    return 0;
}
