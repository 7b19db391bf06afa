/**
 * @file
 * The untimed word store the code generator emits through.
 *
 * kl0::CodeGen writes instruction code, clause tables, indexes and
 * directory words with poke() and reads back already-emitted words
 * (clause headers, index keys) with peek().  Nothing else of a memory
 * is needed to compile, so the fidelity machine's MemorySystem and
 * the fast engine's flat heap both implement this interface and the
 * one code generator emits into either.
 */

#ifndef PSI_MEM_HEAP_STORE_HPP
#define PSI_MEM_HEAP_STORE_HPP

#include "mem/area.hpp"
#include "mem/tagged_word.hpp"

namespace psi {

/** Untimed read/write of single words, bypassing any cache model. */
class HeapStore
{
  public:
    virtual TaggedWord peek(const LogicalAddr &addr) = 0;
    virtual void poke(const LogicalAddr &addr, const TaggedWord &w) = 0;

  protected:
    ~HeapStore() = default;
};

} // namespace psi

#endif // PSI_MEM_HEAP_STORE_HPP
