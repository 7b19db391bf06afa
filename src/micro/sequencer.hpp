/**
 * @file
 * The microprogram sequencer model.
 *
 * Every primitive action of the firmware interpreter is issued as one
 * microinstruction step through this class.  The sequencer
 *
 *  - charges the 200 ns microinstruction cycle,
 *  - routes cache commands through the MemorySystem (which adds the
 *    memory stall time),
 *  - accumulates the dynamic-frequency statistics the paper reports:
 *    steps per firmware module (Table 2), cache commands per step
 *    (Table 3), work-file access mode per field (Table 6) and
 *    branch-field operation (Table 7),
 *  - optionally streams StepEvents to the COLLECT tool.
 *
 * Host C++ sequences the firmware control flow, but every accounted
 * step corresponds to work the model actually performs; the branch
 * field recorded with a step names the control decision the real
 * microinstruction would carry.
 */

#ifndef PSI_MICRO_SEQUENCER_HPP
#define PSI_MICRO_SEQUENCER_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "mem/memory_system.hpp"
#include "mem/trace.hpp"
#include "micro/fields.hpp"
#include "micro/work_file.hpp"

namespace psi {
namespace micro {

/** Dynamic-frequency counters accumulated by the sequencer. */
struct SeqStats
{
    /** Steps per firmware module (Table 2). */
    std::array<std::uint64_t, kNumModules> moduleSteps{};
    /** Branch-field operation counts (Table 7). */
    std::array<std::uint64_t, kNumBranchOps> branchOps{};
    /** WF mode counts per microinstruction field (Table 6). */
    std::array<std::array<std::uint64_t, kNumWfModes>, kNumWfFields>
        wfModes{};
    /** Steps carrying each cache command (Table 3). */
    std::array<std::uint64_t, kNumCacheCmds> cacheSteps{};

    std::uint64_t
    totalSteps() const
    {
        std::uint64_t sum = 0;
        for (auto v : moduleSteps)
            sum += v;
        return sum;
    }

    /** Total WF accesses in field @p f (denominator of Table 6). */
    std::uint64_t
    wfFieldAccesses(WfField f) const
    {
        std::uint64_t sum = 0;
        const auto &row = wfModes[static_cast<int>(f)];
        for (int m = 1; m < kNumWfModes; ++m)
            sum += row[m];
        return sum;
    }
};

/** Nanoseconds per microinstruction step (200 ns on PSI). */
constexpr std::uint64_t kStepNs = 200;

/** Executes microinstruction steps and keeps their statistics. */
class Sequencer
{
  public:
    explicit Sequencer(MemorySystem &mem) : _mem(&mem) {}

    WorkFile &wf() { return _wf; }
    const WorkFile &wf() const { return _wf; }
    MemorySystem &mem() { return *_mem; }

    /** One step with no memory access. */
    void
    step(Module m, BranchOp b, WfMode s1 = WfMode::None,
         WfMode s2 = WfMode::None, WfMode d = WfMode::None)
    {
        account(m, b, s1, s2, d, -1);
    }

    /**
     * Emit @p n decode/move/test steps of the firmware's
     * register-level texture.
     *
     * A 64-bit horizontal microinstruction performs one register
     * transfer or test per 200 ns cycle, so every higher-level
     * action of the interpreter (operand decode, address
     * computation, tag extraction, register shuffling) is a short
     * sequence of such steps around the memory accesses this model
     * issues explicitly.  The sequence cycles through a fixed
     * pattern ring whose field mix is calibrated to the paper's own
     * measurements (Tables 6 and 7); see DESIGN.md §"step texture".
     *
     * The steps are charged in closed form: @p n goes to the
     * module's count and the ring position advances by @p n;
     * stats() adds the ring's branch and work-file fields.  With a
     * trace sink attached every step is still streamed.
     */
    void
    texture(Module m, int n)
    {
        if (n <= 0)
            return;
        if (_trace) {
            for (int i = 0; i < n; ++i) {
                const TexturePat &p =
                    kTextureRing[(_texturePos + i) & 15];
                emit(m, p.b, p.s1, p.s2, p.d, -1);
            }
        }
        _stats.moduleSteps[static_cast<int>(m)] += n;
        _texturePos += n;
    }

    /** One step carrying a cache Read command. */
    TaggedWord
    readMem(Module m, const LogicalAddr &addr, BranchOp b,
            WfMode s1 = WfMode::None, WfMode d = WfMode::None)
    {
        account(m, b, s1, WfMode::None, d,
                static_cast<int>(CacheCmd::Read));
        return _mem->read(addr);
    }

    /** One step carrying a cache Write command. */
    void
    writeMem(Module m, const LogicalAddr &addr, const TaggedWord &w,
             BranchOp b, WfMode s1 = WfMode::None,
             WfMode s2 = WfMode::None)
    {
        account(m, b, s1, s2, WfMode::None,
                static_cast<int>(CacheCmd::Write));
        _mem->write(addr, w);
    }

    /**
     * One step carrying the Write-Stack command (stack push).  When
     * the command is disabled (ablation study), the push degrades to
     * an ordinary Write with its fetch-on-miss behaviour.
     */
    void
    pushMem(Module m, const LogicalAddr &addr, const TaggedWord &w,
            BranchOp b, WfMode s1 = WfMode::None,
            WfMode s2 = WfMode::None)
    {
        if (!_writeStackEnabled) {
            writeMem(m, addr, w, b, s1, s2);
            return;
        }
        account(m, b, s1, s2, WfMode::None,
                static_cast<int>(CacheCmd::WriteStack));
        _mem->writeStack(addr, w);
    }

    /** Enable/disable the Write-Stack command (default on). */
    void setWriteStackEnabled(bool v) { _writeStackEnabled = v; }

    /**
     * The counters since the last resetStats(), with the texture
     * steps taken since then expanded into their ring patterns'
     * branch and work-file fields.
     */
    SeqStats stats() const;

    /** Steps since the last resetStats(); no ring expansion. */
    std::uint64_t totalSteps() const { return _stats.totalSteps(); }

    /** Elapsed model time: steps plus memory stalls. */
    std::uint64_t
    timeNs() const
    {
        return totalSteps() * kStepNs + _mem->stallNs();
    }

    /** Zero the counters; the ring position carries on. */
    void
    resetStats()
    {
        _stats = SeqStats{};
        _ringBase = _texturePos;
    }

    /**
     * Full reset for warm-engine reuse: statistics, the work file
     * (contents and address registers) and the texture ring position.
     * The ring position matters for determinism - it selects which
     * Table 6/7 pattern the next texture step charges, so a reused
     * engine must restart the ring exactly where a fresh one would.
     */
    void
    reset()
    {
        _stats = SeqStats{};
        _wf = WorkFile{};
        _texturePos = 0;
        _ringBase = 0;
    }

    /** Stream step events to @p sink (nullptr disables). */
    void setTraceSink(std::vector<StepEvent> *sink) { _trace = sink; }

  private:
    /** The fields of one texture step. */
    struct TexturePat
    {
        BranchOp b;
        WfMode s1, s2, d;
    };

    /** The texture pattern ring (DESIGN.md §"step texture"). */
    static constexpr TexturePat kTextureRing[16] = {
        {BranchOp::T1CondTrue, WfMode::Direct10_3F, WfMode::Direct00_0F,
         WfMode::None},
        {BranchOp::T2Goto, WfMode::None, WfMode::None,
         WfMode::Direct10_3F},
        {BranchOp::T1CondFalse, WfMode::Direct10_3F,
         WfMode::Direct00_0F, WfMode::Direct00_0F},
        {BranchOp::T1Nop, WfMode::Constant, WfMode::None, WfMode::None},
        {BranchOp::T1CondTrue, WfMode::None, WfMode::Direct00_0F,
         WfMode::None},
        {BranchOp::T2Nop, WfMode::Direct10_3F, WfMode::None,
         WfMode::Direct10_3F},
        {BranchOp::T1CondFalse, WfMode::None, WfMode::Direct00_0F,
         WfMode::Direct10_3F},
        {BranchOp::T1Gosub, WfMode::Direct10_3F, WfMode::None,
         WfMode::None},
        {BranchOp::T1CaseTag, WfMode::Direct10_3F, WfMode::Direct00_0F,
         WfMode::None},
        {BranchOp::T2Goto, WfMode::None, WfMode::None,
         WfMode::Direct00_0F},
        {BranchOp::T1Return, WfMode::None, WfMode::Direct00_0F,
         WfMode::None},
        {BranchOp::T1CondFalse, WfMode::Direct10_3F,
         WfMode::Direct00_0F, WfMode::None},
        {BranchOp::T1Goto, WfMode::Constant, WfMode::None,
         WfMode::Direct10_3F},
        {BranchOp::T2Goto, WfMode::None, WfMode::Direct00_0F,
         WfMode::None},
        {BranchOp::T1CondTrue, WfMode::Direct10_3F, WfMode::None,
         WfMode::Direct10_3F},
        {BranchOp::T1TagCmp, WfMode::Direct10_3F, WfMode::Direct00_0F,
         WfMode::None},
    };

    void
    account(Module m, BranchOp b, WfMode s1, WfMode s2, WfMode d,
            int cache_cmd)
    {
        ++_stats.moduleSteps[static_cast<int>(m)];
        ++_stats.branchOps[static_cast<int>(b)];
        ++_stats.wfModes[0][static_cast<int>(s1)];
        ++_stats.wfModes[1][static_cast<int>(s2)];
        ++_stats.wfModes[2][static_cast<int>(d)];
        if (cache_cmd >= 0)
            ++_stats.cacheSteps[cache_cmd];
        if (_trace)
            emit(m, b, s1, s2, d, cache_cmd);
    }

    void
    emit(Module m, BranchOp b, WfMode s1, WfMode s2, WfMode d,
         int cache_cmd)
    {
        _trace->push_back(StepEvent{
            static_cast<std::uint8_t>(m),
            static_cast<std::uint8_t>(b),
            static_cast<std::uint8_t>(s1),
            static_cast<std::uint8_t>(s2),
            static_cast<std::uint8_t>(d),
            static_cast<std::uint8_t>(cache_cmd + 1)});
    }

    MemorySystem *_mem;
    WorkFile _wf;
    /** Counters; texture steps only in moduleSteps (see stats()). */
    SeqStats _stats;
    std::vector<StepEvent> *_trace = nullptr;
    /** Texture steps taken since reset(); selects the ring entry. */
    std::uint64_t _texturePos = 0;
    /** _texturePos at the last resetStats(). */
    std::uint64_t _ringBase = 0;
    bool _writeStackEnabled = true;
};

} // namespace micro
} // namespace psi

#endif // PSI_MICRO_SEQUENCER_HPP
