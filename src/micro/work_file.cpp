#include "micro/work_file.hpp"

namespace psi {
namespace micro {

const char *
moduleName(Module m)
{
    switch (m) {
      case Module::Control: return "control";
      case Module::Unify: return "unify";
      case Module::Trail: return "trail";
      case Module::GetArg: return "get_arg";
      case Module::Cut: return "cut";
      case Module::Built: return "built";
      case Module::NumModules: break;
    }
    return "?";
}

const char *
wfModeName(WfMode m)
{
    switch (m) {
      case WfMode::None: return "none";
      case WfMode::Direct00_0F: return "WF00-0F";
      case WfMode::Direct10_3F: return "WF10-3F";
      case WfMode::Constant: return "constant";
      case WfMode::BaseRelPdrCdr: return "@PDR/CDR";
      case WfMode::IndWfar1: return "@WFAR1";
      case WfMode::IndWfar2: return "@WFAR2";
      case WfMode::IndWfcbr: return "@WFCBR";
      case WfMode::NumModes: break;
    }
    return "?";
}

const char *
branchOpName(BranchOp op)
{
    switch (op) {
      case BranchOp::T1Nop: return "t1:no operation";
      case BranchOp::T1CondTrue: return "t1:if (cond) then";
      case BranchOp::T1CondFalse: return "t1:if (not(cond)) then";
      case BranchOp::T1TagCmp: return "t1:if tag(src2) then";
      case BranchOp::T1CaseTag: return "t1:case (tag(n,P/CDR))";
      case BranchOp::T1CaseIrn: return "t1:case (irn)";
      case BranchOp::T1CaseIrOpcode: return "t1:case (ir-opcode)";
      case BranchOp::T1Goto: return "t1:goto";
      case BranchOp::T1Gosub: return "t1:gosub";
      case BranchOp::T1Return: return "t1:return";
      case BranchOp::T1LoadJr: return "t1:load-jr";
      case BranchOp::T1GotoJr: return "t1:goto @jr";
      case BranchOp::T2Nop: return "t2:no operation";
      case BranchOp::T2Goto: return "t2:goto";
      case BranchOp::T3Nop: return "t3:no operation";
      case BranchOp::T3GotoCjr: return "t3:goto @cjr";
      case BranchOp::NumOps: break;
    }
    return "?";
}

} // namespace micro
} // namespace psi
