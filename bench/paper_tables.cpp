/**
 * @file
 * The paper's evaluation: Tables 1-7, Figure 1 with its one-set and
 * store-through side studies, and nreverse's model LIPS, measured on
 * the PSI as measured and printed in paper order with the paper's
 * values beside ours.
 *
 *     $ ./bench/paper_tables
 *
 * The output is deterministic; tests/golden/paper_tables.txt pins
 * it, and `paper_tables > tests/golden/paper_tables.txt` regenerates
 * the pin after a deliberate model change.
 */

#include <iostream>

#include "tools/paper_tables.hpp"

int
main()
{
    psi::tools::renderPaperTables(psi::tools::measurePaperTables(),
                                  std::cout);
    return 0;
}
