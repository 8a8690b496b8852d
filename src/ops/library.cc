#include "ops/library.h"

#include <bit>

#include "common/error.h"
#include "logic/mig.h"
#include "logic/optimizer.h"
#include "ops/builders.h"

namespace simdram
{

std::string
toString(OpKind op)
{
    switch (op) {
      case OpKind::Abs: return "abs";
      case OpKind::Add: return "add";
      case OpKind::AndRed: return "and_red";
      case OpKind::Bitcount: return "bitcount";
      case OpKind::Div: return "div";
      case OpKind::Eq: return "eq";
      case OpKind::Ge: return "ge";
      case OpKind::Gt: return "gt";
      case OpKind::IfElse: return "if_else";
      case OpKind::Max: return "max";
      case OpKind::Min: return "min";
      case OpKind::Mul: return "mul";
      case OpKind::OrRed: return "or_red";
      case OpKind::Relu: return "relu";
      case OpKind::Sub: return "sub";
      case OpKind::XorRed: return "xor_red";
      case OpKind::BitAnd: return "bit_and";
      case OpKind::BitOr: return "bit_or";
      case OpKind::BitXor: return "bit_xor";
    }
    return "?";
}

OpSignature
signatureOf(OpKind op, size_t width)
{
    switch (op) {
      case OpKind::Abs:
      case OpKind::Relu:
        return {1, false, width};
      case OpKind::AndRed:
      case OpKind::OrRed:
      case OpKind::XorRed:
        return {1, false, 1};
      case OpKind::Bitcount: {
        size_t out_w = 1;
        while ((size_t{1} << out_w) < width + 1)
            ++out_w;
        return {1, false, out_w};
      }
      case OpKind::Eq:
      case OpKind::Ge:
      case OpKind::Gt:
        return {2, false, 1};
      case OpKind::IfElse:
        return {2, true, width};
      default: // add/sub/mul/div/max/min/bit_and/bit_or/bit_xor
        return {2, false, width};
    }
}

Circuit
buildOpCircuit(OpKind op, size_t width, GateStyle style)
{
    if (width < 1 || width > 64)
        fatal("buildOpCircuit: width must be in [1, 64]");
    if ((op == OpKind::Abs || op == OpKind::Relu) && width < 2)
        fatal("buildOpCircuit: signed operations need width >= 2");
    switch (op) {
      case OpKind::Abs:
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
        return detail::buildArith(op, width, style);
      case OpKind::Eq:
      case OpKind::Gt:
      case OpKind::Ge:
      case OpKind::Max:
      case OpKind::Min:
        return detail::buildRelational(op, width, style);
      case OpKind::AndRed:
      case OpKind::OrRed:
      case OpKind::XorRed:
      case OpKind::Bitcount:
        return detail::buildReduction(op, width, style);
      case OpKind::IfElse:
      case OpKind::Relu:
      case OpKind::BitAnd:
      case OpKind::BitOr:
      case OpKind::BitXor:
        return detail::buildMisc(op, width, style);
    }
    panic("buildOpCircuit: bad op");
}

const Circuit &
OperationLibrary::aoig(OpKind op, size_t width)
{
    return get(op, width, Variant::Aoig);
}

const Circuit &
OperationLibrary::migNaive(OpKind op, size_t width)
{
    return get(op, width, Variant::MigNaive);
}

const Circuit &
OperationLibrary::migSynth(OpKind op, size_t width)
{
    return get(op, width, Variant::MigSynth);
}

const Circuit &
OperationLibrary::mig(OpKind op, size_t width)
{
    return get(op, width, Variant::Mig);
}

const Circuit &
OperationLibrary::get(OpKind op, size_t width, Variant v)
{
    const auto key = std::make_tuple(op, width,
                                     static_cast<uint8_t>(v));
    auto it = cache_.find(key);
    if (it != cache_.end())
        return *it->second;

    Circuit built;
    switch (v) {
      case Variant::Aoig:
        built = buildOpCircuit(op, width, GateStyle::Aoig);
        break;
      case Variant::MigNaive:
        built = toMig(aoig(op, width));
        break;
      case Variant::MigSynth:
        built = optimizeMig(migNaive(op, width));
        break;
      case Variant::Mig: {
        // Production variant: take the better of the expert MAJ/NOT
        // construction and the optimized mechanical lowering — the
        // framework's step 1 keeps whichever implementation needs
        // fewer majority gates.
        Circuit expert = optimizeMig(
            toMig(buildOpCircuit(op, width, GateStyle::Mig)));
        const Circuit &synth = migSynth(op, width);
        if (synth.topoOrder().size() < expert.topoOrder().size())
            built = synth;
        else
            built = std::move(expert);
        break;
      }
    }
    auto owned = std::make_unique<Circuit>(std::move(built));
    const Circuit &ref = *owned;
    cache_.emplace(key, std::move(owned));
    return ref;
}

} // namespace simdram
