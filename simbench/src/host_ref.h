/**
 * @file
 * The benchmark's own host arithmetic: the expected result of every
 * operation it runs, written from the operation semantics (see
 * src/ops/op_kind.h) in plain C++ and sharing no code with the
 * library, so a wrong lane cannot be hidden by a shared bug.
 */

#ifndef SIMBENCH_HOST_REF_H
#define SIMBENCH_HOST_REF_H

#include <bit>
#include <cstddef>
#include <cstdint>

#include "bench.h"
#include "ops/op_kind.h"

namespace simbench
{

/** @return Output width of @p op at input width @p w. */
inline size_t
hostOutBits(simdram::OpKind op, size_t w)
{
    using simdram::OpKind;
    switch (op) {
      case OpKind::AndRed:
      case OpKind::OrRed:
      case OpKind::XorRed:
      case OpKind::Eq:
      case OpKind::Gt:
      case OpKind::Ge:
        return 1;
      case OpKind::Bitcount:
        return std::bit_width(w); // values 0..w
      default:
        return w;
    }
}

/** @return True for the operations that take one input. */
inline bool
hostUnary(simdram::OpKind op)
{
    using simdram::OpKind;
    return op == OpKind::Abs || op == OpKind::Relu ||
           op == OpKind::AndRed || op == OpKind::OrRed ||
           op == OpKind::XorRed || op == OpKind::Bitcount;
}

/**
 * @return op(a, b) at width @p w: unsigned comparisons, two's
 * complement abs/relu, low-w-bit products, all-ones on division by
 * zero, sel ? a : b for if_else.
 */
inline uint64_t
hostOp(simdram::OpKind op, size_t w, uint64_t a, uint64_t b, bool sel)
{
    using simdram::OpKind;
    const uint64_t m = maskOf(w);
    a &= m;
    b &= m;
    const bool neg = (a >> (w - 1)) & 1;
    switch (op) {
      case OpKind::Abs:
        return neg ? (~a + 1) & m : a;
      case OpKind::Relu:
        return neg ? 0 : a;
      case OpKind::Add:
        return (a + b) & m;
      case OpKind::Sub:
        return (a - b) & m;
      case OpKind::Mul:
        return (a * b) & m;
      case OpKind::Div:
        return b == 0 ? m : a / b;
      case OpKind::Eq:
        return a == b;
      case OpKind::Gt:
        return a > b;
      case OpKind::Ge:
        return a >= b;
      case OpKind::Max:
        return a > b ? a : b;
      case OpKind::Min:
        return a < b ? a : b;
      case OpKind::IfElse:
        return sel ? a : b;
      case OpKind::AndRed:
        return a == m;
      case OpKind::OrRed:
        return a != 0;
      case OpKind::XorRed:
        return std::popcount(a) & 1;
      case OpKind::Bitcount:
        return static_cast<uint64_t>(std::popcount(a));
      case OpKind::BitAnd:
        return a & b;
      case OpKind::BitOr:
        return a | b;
      case OpKind::BitXor:
        return a ^ b;
    }
    return 0;
}

} // namespace simbench

#endif // SIMBENCH_HOST_REF_H
