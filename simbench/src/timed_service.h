/**
 * @file
 * A StreamService decorator that times the calls a RequestCoalescer
 * makes into the layer below it — a StreamExecutor or a tenant view —
 * without touching the library. The coalescer's dispatcher executes
 * one batch as: writeObject per request input (staging), submit of
 * the fused program, a wait on the returned handles, readObject of
 * the output (readback). The decorator groups those calls into one
 * BatchRecord per batch and, after readback, collects each finished
 * stream's StreamResult through the non-consuming waitResult().
 */

#ifndef SIMBENCH_TIMED_SERVICE_H
#define SIMBENCH_TIMED_SERVICE_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "bench.h"
#include "runtime/stream_executor.h"
#include "trace.h"

namespace simbench
{

/** Host time one batch spent in each call, plus its streams. */
struct BatchRecord
{
    double stageNs = 0.0;    ///< writeObject calls.
    double submitNs = 0.0;   ///< submit calls.
    double deviceNs = 0.0;   ///< submit return -> readObject entry.
    double readbackNs = 0.0; ///< readObject calls.
    /** Op-opcode instructions in the submitted programs. */
    size_t opInstructions = 0;
    size_t stagedElems = 0; ///< Elements the writeObject calls carried.
    size_t readElems = 0;   ///< Elements readObject returned.
    /** Results of every stream the batch submitted. */
    std::vector<simdram::StreamResult> streams;
};

/** Span names for one decorated layer. */
struct ServiceSpanNames
{
    const char *batch;
    const char *stage;
    const char *submit;
    const char *device;
    const char *readback;
};

class TimedService : public simdram::StreamService
{
  public:
    /** @p inner must outlive this decorator; @p tracer may be null. */
    TimedService(simdram::StreamService &inner, Tracer *tracer,
                 ServiceSpanNames names)
        : inner_(inner), tracer_(tracer), names_(names)
    {}

    uint16_t defineObject(size_t elements, size_t bits) override
    {
        return inner_.defineObject(elements, bits);
    }
    void releaseObject(uint16_t id) override
    {
        inner_.releaseObject(id);
    }
    simdram::BbopObjectShape objectShape(uint16_t id) const override
    {
        return inner_.objectShape(id);
    }
    void sync() override { inner_.sync(); }

    void writeObject(uint16_t id,
                     const std::vector<uint64_t> &data) override;
    std::vector<uint64_t> readObject(uint16_t id) override;
    simdram::StreamHandle
    submit(const std::vector<simdram::BbopInstr> &stream) override;
    std::vector<simdram::StreamHandle>
    submit(const simdram::StreamIR &ir) override;

    /** @return The batches completed so far, removing them. */
    std::vector<BatchRecord> takeBatches();

  private:
    /** Opens the current batch record if none is open. */
    void openBatch(Clock::time_point t);

    simdram::StreamService &inner_;
    Tracer *tracer_;
    ServiceSpanNames names_;

    // Caller-thread state: one dispatcher drives a decorator.
    bool open_ = false;
    BatchRecord cur_;
    int64_t batchSpan_ = -1;
    uint64_t batchSeq_ = 0;
    Clock::time_point submitEnd_;
    std::vector<simdram::StreamHandle> handles_;

    std::mutex mu_;
    std::vector<BatchRecord> done_;
};

} // namespace simbench

#endif // SIMBENCH_TIMED_SERVICE_H
