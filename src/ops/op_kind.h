/**
 * @file
 * The 16 example operations the SIMDRAM paper demonstrates.
 *
 * Categories (paper section 5): N-input logic operations (and_red,
 * or_red, xor_red), relational operations (eq, gt, ge, max, min),
 * arithmetic (add, sub, mul, div, abs), predication (if_else), and
 * other complex operations (bitcount, relu).
 *
 * Semantics (all element widths w in {8,16,32,64}, values masked to w
 * bits):
 *  - abs, relu interpret the operand as two's-complement signed;
 *  - eq/gt/ge/max/min are unsigned comparisons;
 *  - mul returns the low w bits of the product;
 *  - div is unsigned; division by zero returns the all-ones value
 *    (the natural result of the in-DRAM restoring divider);
 *  - and_red/or_red/xor_red reduce the w bits of the operand to 1 bit;
 *  - bitcount returns the population count (ceil(log2(w+1)) bits);
 *  - if_else selects a (sel=1) or b (sel=0) per lane.
 */

#ifndef SIMDRAM_OPS_OP_KIND_H
#define SIMDRAM_OPS_OP_KIND_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.h"

namespace simdram
{

/** The operations shipped with the framework. */
enum class OpKind : uint8_t
{
    Abs,
    Add,
    AndRed,
    Bitcount,
    Div,
    Eq,
    Ge,
    Gt,
    IfElse,
    Max,
    Min,
    Mul,
    OrRed,
    Relu,
    Sub,
    XorRed,
    // ---- Extension operations beyond the paper's example set ----
    // (the paper: "The SIMDRAM framework is not limited to these
    // operations"). Bulk 2-input bitwise logic, Ambit's native ops,
    // generalized to any element width:
    BitAnd,
    BitOr,
    BitXor,
};

/**
 * Number of OpKind enumerators (paper set + extensions). Enumerator
 * values are contiguous from 0, so a decoded operation field is valid
 * iff it is below this count.
 */
constexpr size_t kOpKindCount =
    static_cast<size_t>(OpKind::BitXor) + 1;

/** The paper's 16 example operations, in a stable order. */
constexpr std::array<OpKind, 16> kAllOps = {
    OpKind::Abs,    OpKind::Add, OpKind::AndRed, OpKind::Bitcount,
    OpKind::Div,    OpKind::Eq,  OpKind::Ge,     OpKind::Gt,
    OpKind::IfElse, OpKind::Max, OpKind::Min,    OpKind::Mul,
    OpKind::OrRed,  OpKind::Relu, OpKind::Sub,   OpKind::XorRed,
};

/** Extension operations shipped beyond the paper's set. */
constexpr std::array<OpKind, 3> kExtensionOps = {
    OpKind::BitAnd,
    OpKind::BitOr,
    OpKind::BitXor,
};

/** @return The operation's lowercase name (e.g. "bitcount"). */
std::string toString(OpKind op);

/** Interface shape of an operation at a given element width. */
struct OpSignature
{
    size_t numInputs = 2;  ///< Number of w-bit input buses (1 or 2).
    bool hasSel = false;   ///< True if a 1-bit select bus exists.
    size_t outWidth = 0;   ///< Output bus width in bits.
};

/** @return The signature of @p op at element width @p width. */
OpSignature signatureOf(OpKind op, size_t width);

/**
 * Golden scalar reference for @p op.
 *
 * Inline so a bulk loop over one operation (hostBulkOp) can fold the
 * dispatch away instead of calling out once per element.
 *
 * @param op Operation.
 * @param width Element width; inputs are masked to it.
 * @param a First operand.
 * @param b Second operand (ignored by unary operations).
 * @param sel Predicate bit (if_else only).
 * @return The result, masked to the operation's output width.
 */
inline uint64_t
referenceOp(OpKind op, size_t width, uint64_t a, uint64_t b,
            bool sel = false)
{
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    a &= mask;
    b &= mask;
    const uint64_t sign_bit = 1ULL << (width - 1);

    switch (op) {
      case OpKind::Abs:
        return (a & sign_bit) ? ((~a + 1) & mask) : a;
      case OpKind::Add:
        return (a + b) & mask;
      case OpKind::AndRed:
        return a == mask ? 1 : 0;
      case OpKind::Bitcount:
        return static_cast<uint64_t>(std::popcount(a));
      case OpKind::Div:
        return b == 0 ? mask : (a / b);
      case OpKind::Eq:
        return a == b ? 1 : 0;
      case OpKind::Ge:
        return a >= b ? 1 : 0;
      case OpKind::Gt:
        return a > b ? 1 : 0;
      case OpKind::IfElse:
        return sel ? a : b;
      case OpKind::Max:
        return a > b ? a : b;
      case OpKind::Min:
        return a > b ? b : a;
      case OpKind::Mul:
        return (a * b) & mask;
      case OpKind::OrRed:
        return a != 0 ? 1 : 0;
      case OpKind::Relu:
        return (a & sign_bit) ? 0 : a;
      case OpKind::Sub:
        return (a - b) & mask;
      case OpKind::XorRed:
        return static_cast<uint64_t>(std::popcount(a)) & 1;
      case OpKind::BitAnd:
        return a & b;
      case OpKind::BitOr:
        return a | b;
      case OpKind::BitXor:
        return a ^ b;
    }
    panic("referenceOp: bad op");
}

} // namespace simdram

#endif // SIMDRAM_OPS_OP_KIND_H
