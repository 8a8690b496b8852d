#include "timed_service.h"

#include <utility>

namespace simbench
{

using namespace simdram;

namespace
{

size_t
countOps(const StreamIR &ir)
{
    size_t n = 0;
    for (const StreamNode &node : ir.nodes)
        if (node.instr.opcode == BbopOpcode::Op)
            ++n;
    return n;
}

} // namespace

void
TimedService::openBatch(Clock::time_point t)
{
    if (open_)
        return;
    open_ = true;
    cur_ = BatchRecord{};
    if (tracer_)
        batchSpan_ = tracer_->begin(names_.batch, t, -1, batchSeq_);
}

void
TimedService::writeObject(uint16_t id, const std::vector<uint64_t> &data)
{
    const auto t0 = Clock::now();
    openBatch(t0);
    inner_.writeObject(id, data);
    const auto t1 = Clock::now();
    cur_.stageNs += nsBetween(t0, t1);
    cur_.stagedElems += data.size();
    if (tracer_)
        tracer_->add(names_.stage, t0, t1, batchSpan_, batchSeq_);
}

StreamHandle
TimedService::submit(const std::vector<BbopInstr> &stream)
{
    return submit(StreamIR::lift(stream)).front();
}

std::vector<StreamHandle>
TimedService::submit(const StreamIR &ir)
{
    const auto t0 = Clock::now();
    openBatch(t0);
    std::vector<StreamHandle> hs = inner_.submit(ir);
    submitEnd_ = Clock::now();
    cur_.submitNs += nsBetween(t0, submitEnd_);
    cur_.opInstructions += countOps(ir);
    handles_.insert(handles_.end(), hs.begin(), hs.end());
    if (tracer_)
        tracer_->add(names_.submit, t0, submitEnd_, batchSpan_,
                     batchSeq_);
    return hs;
}

std::vector<uint64_t>
TimedService::readObject(uint16_t id)
{
    const auto t0 = Clock::now();
    if (!open_ || handles_.empty()) {
        // A read outside a batch (none is made by the coalescer).
        return inner_.readObject(id);
    }
    cur_.deviceNs = nsBetween(submitEnd_, t0);
    if (tracer_)
        tracer_->add(names_.device, submitEnd_, t0, batchSpan_,
                     batchSeq_);
    std::vector<uint64_t> out = inner_.readObject(id);
    const auto t1 = Clock::now();
    cur_.readbackNs = nsBetween(t0, t1);
    cur_.readElems = out.size();
    if (tracer_) {
        tracer_->add(names_.readback, t0, t1, batchSpan_, batchSeq_);
        tracer_->finish(batchSpan_, t1);
    }
    // The coalescer has already waited on every handle; waitResult()
    // is non-consuming, so its own wait() saw the same outcome.
    for (StreamHandle &h : handles_)
        cur_.streams.push_back(h.waitResult());
    handles_.clear();
    open_ = false;
    ++batchSeq_;
    std::lock_guard<std::mutex> lock(mu_);
    done_.push_back(std::move(cur_));
    return out;
}

std::vector<BatchRecord>
TimedService::takeBatches()
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(done_, {});
}

} // namespace simbench
