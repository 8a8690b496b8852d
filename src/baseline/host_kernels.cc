#include "baseline/host_kernels.h"

#include <array>
#include <utility>

#include "common/error.h"

namespace simdram
{

namespace
{

using BulkLoop = void (*)(size_t width, const uint64_t *a,
                          const uint64_t *b, const uint64_t *sel,
                          uint64_t *out, size_t n);

/** referenceOp() over @p n lanes, specialized for one operation. */
template <OpKind Op>
void
bulkLoop(size_t width, const uint64_t *a, const uint64_t *b,
         const uint64_t *sel, uint64_t *out, size_t n)
{
    const auto sig = signatureOf(Op, width);
    for (size_t i = 0; i < n; ++i)
        out[i] = referenceOp(Op, width, a[i],
                             sig.numInputs == 2 ? b[i] : 0,
                             sig.hasSel && (sel[i] & 1) != 0);
}

template <size_t... I>
constexpr std::array<BulkLoop, kOpKindCount>
bulkLoops(std::index_sequence<I...>)
{
    return {&bulkLoop<static_cast<OpKind>(I)>...};
}

/** One specialized loop per OpKind, indexed by enumerator value. */
constexpr auto kBulkLoops =
    bulkLoops(std::make_index_sequence<kOpKindCount>());

} // namespace

std::vector<uint64_t>
hostBulkOp(OpKind op, size_t width, const std::vector<uint64_t> &a,
           const std::vector<uint64_t> &b,
           const std::vector<uint64_t> &sel)
{
    const auto sig = signatureOf(op, width);
    if (sig.numInputs == 2 && b.size() != a.size())
        fatal("hostBulkOp: operand size mismatch");
    if (sig.hasSel && sel.size() != a.size())
        fatal("hostBulkOp: predicate size mismatch");

    std::vector<uint64_t> out(a.size());
    kBulkLoops[static_cast<size_t>(op)](width, a.data(), b.data(),
                                        sel.data(), out.data(),
                                        a.size());
    return out;
}

void
hostAdd32(const uint32_t *a, const uint32_t *b, uint32_t *out,
          size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = a[i] + b[i];
}

} // namespace simdram
