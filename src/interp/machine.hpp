/**
 * @file
 * Machine-level value types of the PSI firmware interpreter:
 * frame locations, control-frame layouts, dereference results and
 * the run-result types returned to embedders.
 *
 * Execution model (paper §2.1/§2.2, DEC-10-interpreter style):
 *
 *  - four stacks: the local stack holds local-variable frames, the
 *    global stack compound-term instances and their variables, the
 *    control stack 10-word environment / choice-point frames, the
 *    trail stack reset information;
 *  - the current activation's control information lives in work-file
 *    registers and is saved to the control stack only when necessary
 *    (non-last calls push an environment frame; calls to predicates
 *    with several candidate clauses push a choice point);
 *  - the current local frame lives in one of the two 64-word work-file
 *    frame buffers, used alternately along last-call chains
 *    (tail-recursion optimization); a frame is flushed to the local
 *    stack when it must survive (non-last call) or when a choice
 *    point will re-read the caller's arguments on retry;
 *  - bindings are trailed conditionally against the newest choice
 *    point's saved stack tops; trail entries are buffered in the
 *    work file (via WFAR2) and flushed to the trail stack in bursts.
 */

#ifndef PSI_INTERP_MACHINE_HPP
#define PSI_INTERP_MACHINE_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kl0/term.hpp"
#include "mem/area.hpp"
#include "mem/tagged_word.hpp"

namespace psi {
namespace interp {

/** Where the current clause's local frame lives. */
struct FrameLoc
{
    enum class Kind : std::uint8_t
    {
        None = 0,  ///< clause has no locals
        Buf0 = 1,  ///< work-file frame buffer 0
        Buf1 = 2,  ///< work-file frame buffer 1
        Stack = 3, ///< flushed to the local stack
    };

    Kind kind = Kind::None;
    std::uint32_t addr = 0;  ///< local-stack offset when Stack

    /** Pack into a control-frame word. */
    std::uint32_t
    encode() const
    {
        return (static_cast<std::uint32_t>(kind) << 28) |
               (addr & 0x0fffffffu);
    }

    static FrameLoc
    decode(std::uint32_t w)
    {
        FrameLoc f;
        f.kind = static_cast<Kind>(w >> 28);
        f.addr = w & 0x0fffffffu;
        return f;
    }

    bool inBuffer() const
    {
        return kind == Kind::Buf0 || kind == Kind::Buf1;
    }
};

/** Sentinel: continuation environment of the query itself. */
constexpr std::uint32_t kRootEnv = 0xffffffffu;

/** B == kNoChoice means no choice point is live. */
constexpr std::uint32_t kNoChoice = 0;

/** Stacks start at offset 16 so 0 never aliases a valid frame. */
constexpr std::uint32_t kStackBase = 16;

/** process_call/2 processes: 0 is the caller, 1..kProcesses-1 the
 *  callable ones, each with its own window of every stack area. */
constexpr std::uint32_t kProcesses = 8;

/** Words per process window inside each stack area: process p's
 *  stacks start at p * kProcWindow + kStackBase. */
constexpr std::uint32_t kProcWindow = 1u << 24;

/** Words per control-stack frame (the paper's 10-word frames). */
constexpr std::uint32_t kFrameWords = 10;

/** @name Choice-point frame word indices */
/// @{
constexpr int kCpGoalCP = 0;        ///< code address of the Call word
constexpr int kCpCallerFrame = 1;   ///< caller FrameLoc (encoded)
constexpr int kCpCallerGlobal = 2;  ///< caller's global base
constexpr int kCpContCP = 3;        ///< callee continuation code ptr
constexpr int kCpContEnv = 4;       ///< callee continuation env
constexpr int kCpSavedGT = 5;
constexpr int kCpSavedLT = 6;
constexpr int kCpSavedTT = 7;
constexpr int kCpSavedB = 8;
constexpr int kCpNextClause = 9;    ///< next ClauseRef table address
/// @}

/** @name Environment frame word indices */
/// @{
constexpr int kEnvContCP = 0;
constexpr int kEnvContEnv = 1;
constexpr int kEnvFrameLoc = 2;
constexpr int kEnvGlobalBase = 3;
constexpr int kEnvCutB = 4;
constexpr int kEnvNLocals = 5;
constexpr int kEnvClauseAddr = 6;
// words 7..9 reserved (written as zero; the PSI frame is 10 words)
/// @}

/** The current activation's control registers (held in the WF). */
struct Activation
{
    std::uint32_t contCP = 0;
    std::uint32_t contEnv = kRootEnv;
    FrameLoc frame;
    std::uint32_t globalBase = 0;
    std::uint32_t cutB = kNoChoice;
    std::uint32_t nlocals = 0;
    std::uint32_t clauseAddr = 0;
    /** Control-stack address of this activation's own environment
     *  frame, or 0 when none has been pushed yet. */
    std::uint32_t selfEnv = 0;
};

/** Result of dereferencing a word. */
struct Deref
{
    TaggedWord word;      ///< final non-Ref word, or the unbound Ref
    bool unbound = false;
    LogicalAddr cell;     ///< the unbound cell when unbound
};

/** Limits for one query run (shared by both engines). */
struct RunLimits
{
    int maxSolutions = 1;
    std::uint64_t maxSteps = 2'000'000'000;  ///< safety valve
    std::size_t maxOutputBytes = 1 << 20;
    /**
     * Wall-clock execution budget in host nanoseconds; 0 = unlimited.
     * Checked periodically in the engine loops, process_call's
     * included, so a runaway query returns RunStatus::Timeout with
     * partial statistics instead of wedging its caller (or a psid
     * pool worker).
     */
    std::uint64_t deadlineNs = 0;
};

/** How a query run ended. */
enum class RunStatus : std::uint8_t
{
    Ok = 0,        ///< ran to completion (success or final failure)
    StepLimit = 1, ///< RunLimits::maxSteps exhausted
    Timeout = 2,   ///< RunLimits::deadlineNs wall-clock budget spent
};

/** Short name for reports ("ok" / "step-limit" / "timeout"). */
const char *runStatusName(RunStatus s);

/**
 * Which execution engine serves a solve.
 *
 * Fidelity is the microcoded interpreter whose sequencer drives the
 * paper's model clock and cache statistics (Tables 2-7). Fast is the
 * same firmware on flat storage (src/fast/): byte-identical answers
 * and output, no per-step accounting (steps and model time report as
 * zero).
 */
enum class ExecMode : std::uint8_t
{
    Fidelity = 0,
    Fast = 1,
};

/** Short name for reports ("fidelity" / "fast"). */
const char *execModeName(ExecMode m);

/**
 * Armed wall-clock deadline for RunLimits::deadlineNs.
 *
 * Constructed at run entry; RunGuard polls expired() every few
 * thousand dispatches, so the check costs one clock read amortized
 * over ~1 ms of host work and never perturbs the model statistics
 * (the model clock is driven by microsteps, not host time).
 */
class Deadline
{
  public:
    explicit Deadline(std::uint64_t budget_ns)
        : _armed(budget_ns != 0),
          _expiry(std::chrono::steady_clock::now() +
                  std::chrono::nanoseconds(budget_ns))
    {}

    bool armed() const { return _armed; }

    bool
    expired() const
    {
        return _armed &&
               std::chrono::steady_clock::now() >= _expiry;
    }

  private:
    bool _armed;
    std::chrono::steady_clock::time_point _expiry;
};

/**
 * The limits that end a run early: RunLimits::maxSteps against the
 * engine's work counter, and the wall-clock deadline, whose clock is
 * read once per 4096 checks.  Armed once per run; every engine loop
 * calls check() once per dispatch.
 */
class RunGuard
{
  public:
    RunGuard() : RunGuard(RunLimits{}) {}
    explicit RunGuard(const RunLimits &limits)
        : _maxSteps(limits.maxSteps), _deadline(limits.deadlineNs)
    {}

    /** The limit the run has reached after @p steps units of work,
     *  or RunStatus::Ok. */
    RunStatus
    check(std::uint64_t steps)
    {
        if (steps > _maxSteps)
            return RunStatus::StepLimit;
        if (_deadline.armed() && (++_poll & 0xfffu) == 0 &&
            _deadline.expired()) {
            return RunStatus::Timeout;
        }
        return RunStatus::Ok;
    }

  private:
    std::uint64_t _maxSteps;
    Deadline _deadline;
    std::uint32_t _poll = 0;
};

/** One solution: bindings of the named query variables. */
struct Solution
{
    std::map<std::string, kl0::TermPtr> bindings;

    std::string str() const;
};

/** Outcome of running a query. */
struct RunResult
{
    std::vector<Solution> solutions;
    std::uint64_t inferences = 0;  ///< user-predicate calls
    std::uint64_t timeNs = 0;      ///< model time (steps + stalls)
    std::uint64_t steps = 0;       ///< microinstruction steps
    RunStatus status = RunStatus::Ok;
    std::string output;            ///< text written by write/nl/tab

    bool succeeded() const { return !solutions.empty(); }
    bool timedOut() const { return status == RunStatus::Timeout; }

    /** Logical inferences per second under the model clock. */
    double
    lips() const
    {
        return timeNs == 0
            ? 0.0
            : static_cast<double>(inferences) * 1e9 /
              static_cast<double>(timeNs);
    }
};

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_MACHINE_HPP
