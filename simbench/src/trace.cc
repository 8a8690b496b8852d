#include "trace.h"

#include <cstdio>
#include <map>
#include <thread>

namespace simbench
{

int64_t
Tracer::add(const char *name, Clock::time_point start,
            Clock::time_point end, int64_t parent, uint64_t id)
{
    const std::thread::id self = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t tid = 0;
    while (tid < threads_.size() && threads_[tid] != self)
        ++tid;
    if (tid == threads_.size())
        threads_.push_back(self);
    spans_.push_back(Span{name, start, end, parent, id, tid});
    return static_cast<int64_t>(spans_.size() - 1);
}

void
Tracer::finish(int64_t idx, Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(idx)].end = end;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(
            f,
            "%s\n{\"name\":\"%s\",\"cat\":\"simbench\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"span\":%zu,\"parent\":%lld,\"id\":%llu}}",
            i ? "," : "", s.name, s.tid,
            nsBetween(origin_, s.start) / 1e3,
            nsBetween(s.start, s.end) / 1e3, i,
            static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.id));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

void
Tracer::printSummary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Self time: a span's duration minus its children's (children of
    // one parent never overlap: each is recorded by the thread that
    // ran the parent, in sequence).
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] +=
                nsBetween(s.start, s.end);
    struct Row
    {
        size_t count = 0;
        double totalNs = 0.0;
        double selfNs = 0.0;
    };
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const double d = nsBetween(spans_[i].start, spans_[i].end);
        Row &r = rows[spans_[i].name];
        ++r.count;
        r.totalNs += d;
        r.selfNs += d - child[i];
    }
    std::printf("%-22s %9s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, r] : rows)
        std::printf("%-22s %9zu %12.3f %12.3f\n", name.c_str(),
                    r.count, r.totalNs / 1e6, r.selfNs / 1e6);
}

} // namespace simbench
