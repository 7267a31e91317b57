#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <climits>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfledger
{

namespace
{

std::atomic<bool> g_tracing{false};

struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<SpanLog>> logs;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

const char *
spanName(SpanName name)
{
    switch (name) {
    case SpanName::SweepEpoch: return "parallel.runJobs";
    case SpanName::Job: return "sweep.job";
    case SpanName::RaceReset: return "race.threadLocalDetector";
    case SpanName::WaitgraphReset:
        return "waitgraph.threadLocalWaitgraphDetector";
    case SpanName::KernelRun: return "corpus.run";
    case SpanName::FuzzCampaign: return "fuzz.fuzzRun";
    case SpanName::FuzzExec: return "fuzz.exec";
    case SpanName::ExploreCampaign: return "explore.exploreAll";
    case SpanName::ExploreExec: return "explore.exec";
    case SpanName::SoakRun: return "load.runSoak";
    case SpanName::Count: break;
    }
    return "?";
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

void
setTracing(bool on)
{
    g_tracing.store(on, std::memory_order_relaxed);
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
SpanLog::begin(SpanName name, uint64_t owner, int64_t now_ns)
{
    int64_t record = -1;
    if (records_.size() < kMaxRecords) {
        record = static_cast<int64_t>(records_.size());
        const int64_t parent =
            stack_.empty() ? -1 : stack_.back().record;
        records_.push_back({name, owner, now_ns, now_ns, parent});
    } else {
        dropped_++;
    }
    stack_.push_back({name, owner, now_ns, 0, record});
}

void
SpanLog::end(int64_t now_ns)
{
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t total = now_ns - open.start;
    SpanAgg &agg = agg_[size_t(open.name)];
    agg.count++;
    agg.totalNs += total;
    agg.selfNs += total - open.childNs;
    if (!stack_.empty())
        stack_.back().childNs += total;
    if (open.record >= 0)
        records_[static_cast<size_t>(open.record)].end = now_ns;
}

void
SpanLog::clear()
{
    stack_.clear();
    records_.clear();
    agg_ = {};
    dropped_ = 0;
}

SpanLog &
SpanLog::local()
{
    thread_local SpanLog *log = [] {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.logs.push_back(std::make_unique<SpanLog>());
        r.logs.back()->tid_ = static_cast<unsigned>(r.logs.size());
        return r.logs.back().get();
    }();
    return *log;
}

std::array<SpanAgg, size_t(SpanName::Count)>
totalAggregates()
{
    std::array<SpanAgg, size_t(SpanName::Count)> out{};
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &log : r.logs) {
        for (size_t i = 0; i < out.size(); ++i) {
            out[i].count += log->aggregates()[i].count;
            out[i].totalNs += log->aggregates()[i].totalNs;
            out[i].selfNs += log->aggregates()[i].selfNs;
        }
    }
    return out;
}

void
clearSpans()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &log : r.logs)
        log->clear();
}

bool
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    int64_t t0 = INT64_MAX;
    for (const auto &log : r.logs)
        for (const SpanRecord &s : log->records())
            t0 = std::min(t0, s.start);
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (const auto &log : r.logs) {
        for (const SpanRecord &s : log->records()) {
            std::fprintf(
                f,
                "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                "\"args\": {\"owner\": %llu, \"parent\": %lld}}",
                first ? "" : ",\n", spanName(s.name), log->tid(),
                static_cast<double>(s.start - t0) / 1e3,
                static_cast<double>(s.end - s.start) / 1e3,
                static_cast<unsigned long long>(s.owner),
                static_cast<long long>(s.parent));
            first = false;
        }
    }
    uint64_t dropped = 0;
    for (const auto &log : r.logs)
        dropped += log->dropped();
    // Spans past the per-thread cap fed the aggregates but are not
    // listed; say how many.
    std::fprintf(f, "\n], \"otherData\": {\"dropped_spans\": %llu}}\n",
                 static_cast<unsigned long long>(dropped));
    return std::fclose(f) == 0;
}

} // namespace perfledger
