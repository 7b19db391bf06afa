/**
 * @file
 * The KL0 library predicates, tested on both engines (parameterized
 * by engine kind so every predicate is exercised under the PSI
 * interpreter and the compiled baseline alike).
 */

#include <gtest/gtest.h>

#include "psi.hpp"

using namespace psi;

namespace {

enum class Kind { Psi, Wam };

std::vector<std::string>
solutions(Kind k, const std::string &query, int max = 50)
{
    interp::RunLimits lim;
    lim.maxSolutions = max;
    interp::RunResult r;
    if (k == Kind::Psi) {
        interp::Engine eng;
        eng.consult(programs::librarySource());
        r = eng.solve(query, lim);
    } else {
        baseline::WamEngine eng;
        eng.consult(programs::librarySource());
        r = eng.solve(query, lim);
    }
    std::vector<std::string> out;
    for (const auto &s : r.solutions) {
        std::string line;
        for (const auto &kv : s.bindings) {
            if (!line.empty())
                line += " ";
            line += kv.first + "=" + kv.second->canonicalStr();
        }
        out.push_back(line.empty() ? "yes" : line);
    }
    return out;
}

class Library : public ::testing::TestWithParam<Kind>
{
  protected:
    std::vector<std::string>
    sols(const std::string &q, int max = 50)
    {
        return solutions(GetParam(), q, max);
    }

    std::string
    first(const std::string &q)
    {
        auto v = sols(q, 1);
        return v.empty() ? "<fail>" : v[0];
    }
};

} // namespace

TEST_P(Library, Append)
{
    EXPECT_EQ(first("append([1,2], [3], L)"), "L=[1,2,3]");
    EXPECT_EQ(sols("append(X, Y, [a,b])").size(), 3u);
}

TEST_P(Library, MemberAndMemberchk)
{
    EXPECT_EQ(sols("member(X, [p,q,r])").size(), 3u);
    EXPECT_EQ(sols("memberchk(q, [p,q,r,q])").size(), 1u);
    EXPECT_TRUE(sols("member(z, [p,q])").empty());
}

TEST_P(Library, Length)
{
    EXPECT_EQ(first("length([a,b,c,d], N)"), "N=4");
    EXPECT_EQ(first("length([], N)"), "N=0");
}

TEST_P(Library, Reverse)
{
    EXPECT_EQ(first("reverse([1,2,3], R)"), "R=[3,2,1]");
}

TEST_P(Library, Nth)
{
    EXPECT_EQ(first("nth0(1, [a,b,c], X)"), "X=b");
    EXPECT_EQ(first("nth1(1, [a,b,c], X)"), "X=a");
    EXPECT_EQ(first("last([a,b,c], X)"), "X=c");
}

TEST_P(Library, SelectAndPermutation)
{
    EXPECT_EQ(sols("select(X, [1,2,3], R)").size(), 3u);
    EXPECT_EQ(sols("permutation([1,2,3], P)").size(), 6u);
}

TEST_P(Library, Between)
{
    auto v = sols("between(2, 5, X)");
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "X=2");
    EXPECT_EQ(v[3], "X=5");
    EXPECT_TRUE(sols("between(5, 2, _)").empty());
}

TEST_P(Library, Aggregates)
{
    EXPECT_EQ(first("sum_list([1,2,3,4], S)"), "S=10");
    EXPECT_EQ(first("max_list([3,9,2], M)"), "M=9");
    EXPECT_EQ(first("min_list([3,9,2], M)"), "M=2");
}

TEST_P(Library, Sorting)
{
    EXPECT_EQ(first("msort_list([3,1,2,1], S)"), "S=[1,1,2,3]");
    EXPECT_EQ(first("msort_list([b,a], S)"), "S=[a,b]");
}

TEST_P(Library, DeleteAndNumlist)
{
    EXPECT_EQ(first("delete([1,2,1,3], 1, R)"), "R=[2,3]");
    EXPECT_EQ(first("numlist(1, 4, L)"), "L=[1,2,3,4]");
    EXPECT_EQ(first("positives([-1,2,0,3], P)"), "P=[2,3]");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, Library,
                         ::testing::Values(Kind::Psi, Kind::Wam),
                         [](const auto &info) {
                             return info.param == Kind::Psi
                                        ? "psi"
                                        : "baseline";
                         });
