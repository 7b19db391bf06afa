#include "mem/translation.hpp"

namespace psi {

std::uint32_t
TranslationTable::mapPage(const LogicalAddr &addr)
{
    auto &table = _tables[static_cast<int>(addr.area)];
    std::uint32_t vpage = addr.offset / kPageWords;
    if (vpage >= table.size())
        table.resize(vpage + 1, kUnmapped);
    if (table[vpage] == kUnmapped)
        table[vpage] = _mem->allocFrame();
    return table[vpage] + addr.offset % kPageWords;
}

} // namespace psi
