/**
 * @file
 * Digital PUM logic families.
 *
 * A logic family (Section 2.2.2) is the set of Boolean primitives a
 * memory technology can execute natively in-array, together with their
 * voltages and timing. DARTH-PUM uses OSCAR (NOR + OR in ReRAM); the
 * motivation study (Figure 7) also evaluates an "ideal" family that
 * executes any two-input Boolean operator in one cycle.
 */

#ifndef DARTH_DIGITAL_LOGICFAMILY_H
#define DARTH_DIGITAL_LOGICFAMILY_H

#include <string>

#include "common/Types.h"

namespace darth
{
namespace digital
{

/** Two-input (or one-input) Boolean primitives. */
enum class Prim
{
    Nor,
    Or,
    And,
    Nand,
    Xor,
    Xnor,
    Not,
    Copy,
};

/** Printable name of a primitive. */
const char *primName(Prim prim);

/** Apply a primitive to scalar bits (reference semantics). */
bool applyPrim(Prim prim, bool a, bool b);

/** Which logic family an array supports. */
enum class LogicFamilyKind
{
    /** OSCAR [138]: native NOR and OR on ReRAM. */
    Oscar,
    /** Hypothetical family with every primitive native (Figure 7). */
    Ideal,
};

/**
 * Static description of a logic family: which primitives execute
 * natively (one array cycle) and what each costs.
 */
class LogicFamily
{
  public:
    explicit LogicFamily(LogicFamilyKind kind) : kind_(kind) {}

    LogicFamilyKind kind() const { return kind_; }

    std::string name() const
    {
        return kind_ == LogicFamilyKind::Oscar ? "OSCAR" : "Ideal";
    }

    /** True when the primitive executes in one in-array operation. */
    bool
    isNative(Prim prim) const
    {
        if (kind_ == LogicFamilyKind::Ideal)
            return true;
        // OSCAR natively realizes NOR and OR (plus trivial copy via
        // OR with a zero column).
        return prim == Prim::Nor || prim == Prim::Or ||
               prim == Prim::Copy;
    }

  private:
    LogicFamilyKind kind_;
};

} // namespace digital
} // namespace darth

#endif // DARTH_DIGITAL_LOGICFAMILY_H
