#include "baseline/cost_model.hpp"

namespace psi {
namespace baseline {

const char *
wopName(WOp op)
{
    switch (op) {
      case WOp::GetVariableX: return "get_variable_x";
      case WOp::GetVariableY: return "get_variable_y";
      case WOp::GetValueX: return "get_value_x";
      case WOp::GetValueY: return "get_value_y";
      case WOp::GetConstant: return "get_constant";
      case WOp::GetInt: return "get_int";
      case WOp::GetNil: return "get_nil";
      case WOp::GetList: return "get_list";
      case WOp::GetStruct: return "get_struct";
      case WOp::UnifyVariableX: return "unify_variable_x";
      case WOp::UnifyVariableY: return "unify_variable_y";
      case WOp::UnifyValueX: return "unify_value_x";
      case WOp::UnifyValueY: return "unify_value_y";
      case WOp::UnifyConstant: return "unify_constant";
      case WOp::UnifyInt: return "unify_int";
      case WOp::UnifyNil: return "unify_nil";
      case WOp::UnifyVoid: return "unify_void";
      case WOp::PutVariableX: return "put_variable_x";
      case WOp::PutVariableY: return "put_variable_y";
      case WOp::PutValueX: return "put_value_x";
      case WOp::PutValueY: return "put_value_y";
      case WOp::PutConstant: return "put_constant";
      case WOp::PutInt: return "put_int";
      case WOp::PutNil: return "put_nil";
      case WOp::PutList: return "put_list";
      case WOp::PutStruct: return "put_struct";
      case WOp::SetVariableX: return "set_variable_x";
      case WOp::SetVariableY: return "set_variable_y";
      case WOp::SetValueX: return "set_value_x";
      case WOp::SetValueY: return "set_value_y";
      case WOp::SetConstant: return "set_constant";
      case WOp::SetInt: return "set_int";
      case WOp::SetNil: return "set_nil";
      case WOp::SetVoid: return "set_void";
      case WOp::Allocate: return "allocate";
      case WOp::Deallocate: return "deallocate";
      case WOp::Call: return "call";
      case WOp::Execute: return "execute";
      case WOp::Proceed: return "proceed";
      case WOp::CallBuiltin: return "call_builtin";
      case WOp::GetLevel: return "get_level";
      case WOp::CutY: return "cut_y";
      case WOp::NeckCut: return "neck_cut";
      case WOp::Halt: return "halt";
      case WOp::NumOps: break;
    }
    return "?";
}

std::string
WInstr::str() const
{
    std::string s = wopName(op);
    s += ' ';
    s += std::to_string(a);
    s += ',';
    s += std::to_string(b);
    return s;
}

const CostModel &
CostModel::dec2060()
{
    static const CostModel m = [] {
        CostModel c;
        // Register-only moves.
        const std::uint32_t reg = 1100;
        // Instructions touching the heap or environment.
        const std::uint32_t mem = 1900;
        // Control transfers.
        const std::uint32_t ctl = 3200;
        for (int i = 0; i < static_cast<int>(WOp::NumOps); ++i)
            c.op[i] = mem;
        auto set = [&c](WOp op, std::uint32_t v) {
            c.op[static_cast<int>(op)] = v;
        };
        set(WOp::GetVariableX, reg);
        set(WOp::GetValueX, reg + 600);
        set(WOp::GetConstant, reg + 500);
        set(WOp::GetInt, reg + 500);
        set(WOp::GetNil, reg + 500);
        set(WOp::PutValueX, reg);
        set(WOp::PutConstant, reg);
        set(WOp::PutInt, reg);
        set(WOp::PutNil, reg);
        set(WOp::UnifyVoid, reg);
        set(WOp::SetVoid, mem);
        set(WOp::Allocate, ctl);
        set(WOp::Deallocate, ctl - 1000);
        set(WOp::Call, ctl + 800);
        set(WOp::Execute, ctl);
        set(WOp::Proceed, ctl - 1200);
        set(WOp::CallBuiltin, ctl - 1000);
        set(WOp::GetLevel, reg);
        set(WOp::CutY, mem);
        set(WOp::NeckCut, reg);
        set(WOp::Halt, reg);
        // Compiled list/constant unification is fast (the close
        // indexing + mode-declaration advantage).
        set(WOp::GetList, 1400);
        set(WOp::GetStruct, 1600);
        set(WOp::UnifyVariableX, 1300);
        set(WOp::UnifyVariableY, 1500);
        set(WOp::UnifyValueX, 1500);
        set(WOp::UnifyValueY, 1700);
        set(WOp::UnifyConstant, 1400);
        set(WOp::UnifyInt, 1400);
        set(WOp::UnifyNil, 1300);
        set(WOp::PutList, 1400);
        set(WOp::PutStruct, 1600);
        set(WOp::SetVariableX, 1300);
        set(WOp::SetVariableY, 1500);
        set(WOp::SetValueX, 1300);
        set(WOp::SetValueY, 1500);
        set(WOp::SetConstant, 1300);
        set(WOp::SetInt, 1300);
        set(WOp::SetNil, 1300);
        set(WOp::Allocate, 2800);
        set(WOp::Deallocate, 2000);
        set(WOp::Call, 3600);
        set(WOp::Execute, 2800);
        set(WOp::Proceed, 1800);
        c.tryCost = 8000;       // choice-point creation
        c.retryCost = 5000;
        c.trustCost = 2000;
        c.indexCost = 2200;     // switch_on_term dispatch
        c.unifyRecurse = 5200;  // the general unifier runs escape
                                // code, not compiled open code
        c.derefStep = 900;
        c.trailOp = 1400;
        c.builtinBase = 2200;
        c.metaBuiltin = 6000;   // functor/arg/=.. take the slow
                                // interpreted path
        c.arithNode = 1100;     // mode-declared compiled arithmetic
        c.writeNode = 4000;
        return c;
    }();
    return m;
}

std::uint64_t
CostCounters::totalInstr() const
{
    std::uint64_t n = 0;
    for (auto v : op)
        n += v;
    return n;
}

std::uint64_t
CostCounters::timeNs(const CostModel &m) const
{
    std::uint64_t t = 0;
    for (int i = 0; i < static_cast<int>(WOp::NumOps); ++i)
        t += static_cast<std::uint64_t>(op[i]) * m.op[i];
    t += tries * m.tryCost;
    t += retries * m.retryCost;
    t += trusts * m.trustCost;
    t += indexes * m.indexCost;
    t += unifyNodes * m.unifyRecurse;
    t += derefs * m.derefStep;
    t += trailOps * m.trailOp;
    t += builtinCalls * m.builtinBase;
    t += metaCalls * m.metaBuiltin;
    t += arithNodes * m.arithNode;
    t += writeNodes * m.writeNode;
    return t;
}

} // namespace baseline
} // namespace psi
