/**
 * @file
 * The PSI firmware interpreter: the engine core (core.hpp) on the
 * Modeled access policy.
 *
 * One Engine owns the full machine: memory system (translation +
 * cache + main memory), microprogram sequencer (work file, timing,
 * dynamic-frequency statistics), symbol table and code generator.
 * Programs are loaded once; queries are compiled on the fly and
 * executed by the firmware main loop.
 *
 * Every firmware action is issued through the sequencer, so the
 * statistics behind the paper's Tables 2-7 are measured from the work
 * the model actually performs.  The firmware itself lives in the
 * shared core, split by firmware module: core_control.hpp (the main
 * loop and control), core_unify.hpp (unification, trail),
 * core_builtins.hpp, core_arith.hpp, core_term.hpp and
 * core_process.hpp (built-ins, get_arg).  The fast engine (src/fast/)
 * runs the same core on flat storage with the accounting compiled
 * out.
 */

#ifndef PSI_INTERP_ENGINE_HPP
#define PSI_INTERP_ENGINE_HPP

#include <cstdint>
#include <string>

#include "interp/core.hpp"
#include "interp/machine.hpp"
#include "kl0/codegen.hpp"
#include "kl0/compiled_program.hpp"
#include "kl0/program.hpp"
#include "kl0/symbols.hpp"
#include "mem/memory_system.hpp"
#include "micro/sequencer.hpp"

namespace psi {
namespace interp {

/**
 * Firmware feature switches for the design studies the paper's
 * evaluation motivates (§4 discussions and the PSI-II redesign the
 * conclusion announces).  The defaults are the PSI as measured.
 */
struct FirmwareOptions
{
    /** Buffer trail entries in the WF via WFAR2 (paper §4.3). */
    bool trailBuffer = true;
    /** Use the dedicated Write-Stack cache command for pushes. */
    bool writeStackCommand = true;
    /** Cache local frames in the WF buffers (TRO support, §2.2). */
    bool frameBuffers = true;
};

/**
 * The Modeled access policy: every core action becomes a
 * microinstruction step through the Sequencer, memory accesses go
 * through the cache-modeled MemorySystem, and the A registers, frame
 * buffers and trail buffer live in the sequencer's work file.
 */
class Modeled
{
  public:
    using Module = micro::Module;
    using BranchOp = micro::BranchOp;
    using WfMode = micro::WfMode;

    Modeled(const CacheConfig &config, const FirmwareOptions &fw)
        : _mem(config), _seq(_mem), _fw(fw)
    {
        _seq.setWriteStackEnabled(fw.writeStackCommand);
    }
    // The sequencer points at the memory system.
    Modeled(const Modeled &) = delete;
    Modeled &operator=(const Modeled &) = delete;

    MemorySystem &heap() { return _mem; }
    micro::Sequencer &seq() { return _seq; }

    /** Memory contents and mappings, cache residency, work file,
     *  texture ring and statistics, as just constructed. */
    void
    reset()
    {
        _mem.reset();
        _seq.reset();
    }
    void
    startRun()
    {
        _mem.resetStats();
        _seq.resetStats();
    }
    void
    finishRun(RunResult &result) const
    {
        result.steps = _seq.totalSteps();
        result.timeNs = _seq.timeNs();
    }

    void
    step(Module m, BranchOp b, WfMode s1 = WfMode::None,
         WfMode s2 = WfMode::None, WfMode d = WfMode::None)
    {
        _seq.step(m, b, s1, s2, d);
    }
    void texture(Module m, int n) { _seq.texture(m, n); }

    TaggedWord
    readMem(Module m, const LogicalAddr &addr, BranchOp b,
            WfMode s1 = WfMode::None, WfMode d = WfMode::None)
    {
        return _seq.readMem(m, addr, b, s1, d);
    }
    void
    writeMem(Module m, const LogicalAddr &addr, const TaggedWord &w,
             BranchOp b, WfMode s1 = WfMode::None,
             WfMode s2 = WfMode::None)
    {
        _seq.writeMem(m, addr, w, b, s1, s2);
    }
    void
    pushMem(Module m, const LogicalAddr &addr, const TaggedWord &w,
            BranchOp b, WfMode s1 = WfMode::None,
            WfMode s2 = WfMode::None)
    {
        _seq.pushMem(m, addr, w, b, s1, s2);
    }
    /** @p n writes of @p w from @p addr, one step each. */
    void
    fillMem(Module m, const LogicalAddr &addr, std::uint32_t n,
            const TaggedWord &w, BranchOp b, WfMode s1)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            _seq.writeMem(m, addr.plus(i), w, b, s1);
    }
    TaggedWord peek(const LogicalAddr &addr) { return _mem.peek(addr); }

    TaggedWord wfRead(std::uint16_t addr) const
    {
        return _seq.wf().read(addr);
    }
    void wfWrite(std::uint16_t addr, const TaggedWord &w)
    {
        _seq.wf().write(addr, w);
    }

    bool trailBuffer() const { return _fw.trailBuffer; }
    bool frameBuffers() const { return _fw.frameBuffers; }

    /** Microinstruction steps so far (the sequencer counts them). */
    std::uint64_t ticks() const { return _seq.totalSteps(); }
    void tick() {}

  private:
    MemorySystem _mem;
    micro::Sequencer _seq;
    FirmwareOptions _fw;
};

/** The microprogrammed KL0 interpreter. */
class Engine : public Core<Modeled>
{
  public:
    explicit Engine(const CacheConfig &config = CacheConfig::psi(),
                    const FirmwareOptions &fw = FirmwareOptions());

    /** Load (normalize + compile) a program into the heap image. */
    void load(const kl0::Program &program);

    using Core::load;

    /** Core::load, first re-configuring the cache model for this run. */
    void load(const kl0::CompiledProgram &image,
              const CacheConfig &cache);

    /**
     * Consult @p text.  On a fresh machine this routes through the
     * single compile entry point, CompiledProgram::compile, and
     * installs the image; on a machine that already holds code it
     * compiles incrementally, appending clauses (the REPL path).
     */
    void consult(const std::string &text);

    /**
     * Code-generation options for subsequent consults and query
     * compiles.  load(image) overrides them with the image's own
     * options so the engine stays consistent with the installed code.
     */
    void setCompileOptions(const kl0::CompileOptions &opts)
    {
        _codegen.setOptions(opts);
    }

    /** @name Component access (benches, tools, tests) */
    /// @{
    MemorySystem &mem() { return _acc.heap(); }
    micro::Sequencer &seq() { return _acc.seq(); }
    kl0::SymbolTable &symbols() { return _syms; }
    /// @}
};

} // namespace interp
} // namespace psi

#endif // PSI_INTERP_ENGINE_HPP
