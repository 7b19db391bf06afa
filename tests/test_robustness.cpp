/**
 * @file
 * Robustness properties: malformed input must raise FatalError (and
 * never crash), deterministic pseudo-random token soup included; the
 * engines must survive pathological-but-legal programs.
 */

#include <gtest/gtest.h>

#include "psi.hpp"

using namespace psi;

namespace {

/** xorshift32: deterministic input generator for the soup tests. */
std::uint32_t
next(std::uint32_t &s)
{
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
}

} // namespace

TEST(Robustness, MalformedClausesThrowNotCrash)
{
    const char *bad[] = {
        "f(.",       "f(a))",     "f(a",      "[1,2",
        "f(a) :- .", "f().",     "f(a,).",   "f(|).",
        "f(a) g(b).", "'unterminated", "/* open", "f(a)extra.",
        "1.",        "X.",
    };
    for (const char *text : bad) {
        kl0::Program p;
        EXPECT_THROW(p.consult(text), FatalError) << text;
    }
}

TEST(Robustness, BadGoalsThrowAtLoad)
{
    interp::Engine eng;
    EXPECT_THROW(eng.consult("f(a) :- 1."), FatalError);
    EXPECT_THROW(eng.consult("f(X) :- X."), FatalError);
}

TEST(Robustness, TokenSoupNeverCrashes)
{
    const char alphabet[] =
        "abzXY_09 ()[]|,.'\\+-*/<>=:;!@#&{}\n\t";
    std::uint32_t seed = 0xC0FFEE;
    int parsed_ok = 0;
    for (int round = 0; round < 300; ++round) {
        std::string text;
        int len = 1 + static_cast<int>(next(seed) % 60);
        for (int i = 0; i < len; ++i)
            text.push_back(
                alphabet[next(seed) % (sizeof(alphabet) - 1)]);
        try {
            kl0::Program p;
            p.consult(text);
            ++parsed_ok;
        } catch (const FatalError &) {
            // expected for most soups
        }
    }
    // The property is "no crash"; a few soups may legitimately parse.
    SUCCEED() << parsed_ok << " soups parsed";
}

TEST(Robustness, DeepNestingParsesAndRuns)
{
    // 200 levels of f(...) nesting.
    std::string term = "x";
    for (int i = 0; i < 200; ++i)
        term = "f(" + term + ")";
    interp::Engine eng;
    eng.consult("deep(" + term + ").");
    auto r = eng.solve("deep(X), deep(X)");
    EXPECT_TRUE(r.succeeded());
}

TEST(Robustness, LongListsRoundTrip)
{
    std::string list = "[0";
    for (int i = 1; i < 800; ++i) {
        list += ',';
        list += std::to_string(i);
    }
    list += "]";
    interp::Engine eng;
    eng.consult(programs::librarySource());
    auto r = eng.solve("length(" + list + ", N)");
    ASSERT_TRUE(r.succeeded());
    EXPECT_EQ(r.solutions[0].bindings.at("N")->value(), 800);
}

TEST(Robustness, SelfUnificationOfLargeTerms)
{
    interp::Engine eng;
    eng.consult("eq(X, X).");
    std::string t = "g(1)";
    for (int i = 0; i < 12; ++i)
        t = "h(" + t + "," + t + ")";
    // ~4K-node ground term unified against an equal copy: must
    // finish well within the step limit.
    interp::RunLimits lim;
    lim.maxSteps = 50'000'000;
    auto r = eng.solve("eq(" + t + ", " + t + ")", lim);
    EXPECT_TRUE(r.succeeded());
}

TEST(Robustness, ZeroArityEverything)
{
    interp::Engine eng;
    eng.consult("a. b :- a. c :- b, a.");
    EXPECT_TRUE(eng.solve("c").succeeded());
}

TEST(Robustness, EmptyProgramAndQueries)
{
    interp::Engine eng;
    eng.consult("");
    EXPECT_TRUE(eng.solve("true").succeeded());
    EXPECT_FALSE(eng.solve("fail").succeeded());
}

TEST(Robustness, BaselineMalformedAlsoThrows)
{
    baseline::WamEngine eng;
    EXPECT_THROW(eng.consult("f(."), FatalError);
    EXPECT_THROW(eng.consult("1."), FatalError);
}
