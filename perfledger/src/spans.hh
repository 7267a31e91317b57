/**
 * @file
 * Spans for the traced run: the benchmark times its own calls into
 * each golite layer, recording name, start, end, parent and an owner
 * id (one per job, campaign or soak run). Spans stay in per-thread
 * memory until the run ends; each thread also keeps running totals
 * per name (count, total and self time, self = span minus children),
 * so the aggregates cover every span even when the raw list is
 * capped.
 *
 * Tracing is off unless setTracing(true): a ScopedSpan then costs
 * one branch, which is what the untraced run pays.
 */

#ifndef PERFLEDGER_SPANS_HH
#define PERFLEDGER_SPANS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfledger
{

enum class SpanName : uint8_t
{
    SweepEpoch,     ///< parallel::runJobs over one round
    Job,            ///< one protocol_sweep job
    RaceReset,      ///< parallel::threadLocalDetector()
    WaitgraphReset, ///< parallel::threadLocalWaitgraphDetector()
    KernelRun,      ///< corpus::BugCase::run
    FuzzCampaign,   ///< fuzz::fuzzRun
    FuzzExec,       ///< the RunProgram callback
    ExploreCampaign, ///< explore::exploreAll
    ExploreExec,    ///< the exploreAll run callback
    SoakRun,        ///< load::runSoak
    Count,
};

const char *spanName(SpanName name);

/** Aggregate over every closed span of one name. */
struct SpanAgg
{
    uint64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

/** One recorded span. parent is an index into the same thread's
 *  list, or -1. */
struct SpanRecord
{
    SpanName name;
    uint64_t owner;
    int64_t start;
    int64_t end;
    int64_t parent;
};

/** The calling thread's span log. */
class SpanLog
{
  public:
    /** Raw spans kept per thread; later ones only feed aggregates. */
    static constexpr size_t kMaxRecords = 1u << 14;

    void begin(SpanName name, uint64_t owner, int64_t now_ns);
    void end(int64_t now_ns);
    /** Drop every span (keeps the thread id). */
    void clear();

    const std::vector<SpanRecord> &records() const { return records_; }
    const std::array<SpanAgg, size_t(SpanName::Count)> &
    aggregates() const
    {
        return agg_;
    }
    uint64_t dropped() const { return dropped_; }
    unsigned tid() const { return tid_; }

    /** The calling thread's log (registered on first use). */
    static SpanLog &local();

  private:
    struct Open
    {
        SpanName name;
        uint64_t owner;
        int64_t start;
        int64_t childNs;
        int64_t record; ///< index in records_, or -1 when dropped
    };

    std::vector<Open> stack_;
    std::vector<SpanRecord> records_;
    std::array<SpanAgg, size_t(SpanName::Count)> agg_{};
    uint64_t dropped_ = 0;
    unsigned tid_ = 0;
};

bool tracing();
void setTracing(bool on);

/** Monotonic clock in ns. */
int64_t nowNs();

/** RAII span; no-op unless tracing(). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanName name, uint64_t owner)
    {
        if (tracing()) {
            log_ = &SpanLog::local();
            log_->begin(name, owner, nowNs());
        }
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->end(nowNs());
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_ = nullptr;
};

/** Aggregates summed over every thread's log. */
std::array<SpanAgg, size_t(SpanName::Count)> totalAggregates();

/** Clear every thread's log (between traced phases). */
void clearSpans();

/** Write every thread's raw spans as Chrome trace-event JSON. */
bool writeSpans(const std::string &path);

} // namespace perfledger

#endif // PERFLEDGER_SPANS_HH
