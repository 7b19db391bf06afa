#include "mem/memory_system.hpp"

namespace psi {

MemorySystem::MemorySystem(const CacheConfig &config)
    : _xlat(_mem), _cache(config)
{
}

TaggedWord
MemorySystem::peek(const LogicalAddr &addr)
{
    return _mem.read(_xlat.translate(addr));
}

void
MemorySystem::poke(const LogicalAddr &addr, const TaggedWord &w)
{
    if (_pokeLog)
        _pokeLog->push_back(PokeRecord{addr, w});
    _mem.write(_xlat.translate(addr), w);
}

void
MemorySystem::resetStats()
{
    _cache.reset();
    _stallNs = 0;
}

void
MemorySystem::reset()
{
    _mem.reset();
    _xlat.reset();
    _cache.reset();
    _stallNs = 0;
}

void
MemorySystem::reconfigure(const CacheConfig &config)
{
    reset();
    _cache.reconfigure(config);
}

} // namespace psi
