/**
 * @file
 * In-memory span recorder for traced runs. Spans are recorded at the
 * benchmark's own layer boundaries (around calls into the library's
 * public functions), kept in memory, and written out at exit as
 * Chrome trace-event JSON (viewable in Perfetto or chrome://tracing).
 */

#ifndef SIMBENCH_TRACE_H
#define SIMBENCH_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace simbench
{

/** One recorded interval. */
struct Span
{
    const char *name = "";   ///< Layer-qualified name, e.g. "exec.run".
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent = -1;     ///< Index of the causing span, or -1.
    uint64_t id = 0;         ///< Request / round / batch identifier.
    uint32_t tid = 0;        ///< Recording thread (small integer).
};

/** Thread-safe span store. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** Records a finished span; @return its index (for children). */
    int64_t add(const char *name, Clock::time_point start,
                Clock::time_point end, int64_t parent = -1,
                uint64_t id = 0);

    /**
     * Opens a span whose end is not known yet, so that children can
     * name it as their parent; close it with finish().
     */
    int64_t begin(const char *name, Clock::time_point start,
                  int64_t parent = -1, uint64_t id = 0)
    {
        return add(name, start, start, parent, id);
    }

    /** Sets the end of span @p idx. */
    void finish(int64_t idx, Clock::time_point end);

    /** @return Number of spans recorded. */
    size_t size() const;

    /**
     * Writes every span as a Chrome trace-event "X" event; @return
     * false if the file could not be written.
     */
    bool writeChrome(const std::string &path) const;

    /**
     * Prints one line per span name: count, total and self time
     * (duration minus the part covered by child spans).
     */
    void printSummary() const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::thread::id> threads_;
    Clock::time_point origin_;
};

} // namespace simbench

#endif // SIMBENCH_TRACE_H
