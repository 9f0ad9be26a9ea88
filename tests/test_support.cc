/**
 * @file
 * Unit tests for the support layer: checked math, rationals, string
 * helpers, the JSON reader and writer, diagnostics.
 */

#include <gtest/gtest.h>

#include <vector>

#include <atomic>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <random>
#include <utility>

#include "support/intmath.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/lru.hh"
#include "support/rational.hh"
#include "support/retry.hh"
#include "support/small_vec.hh"
#include "support/strutil.hh"
#include "support/thread_pool.hh"

namespace polyfuse {
namespace {

TEST(IntMath, FloorDivMatchesMathematicalDefinition)
{
    EXPECT_EQ(floorDiv(7, 2), 3);
    EXPECT_EQ(floorDiv(-7, 2), -4);
    EXPECT_EQ(floorDiv(7, -2), -4);
    EXPECT_EQ(floorDiv(-7, -2), 3);
    EXPECT_EQ(floorDiv(6, 3), 2);
    EXPECT_EQ(floorDiv(-6, 3), -2);
    EXPECT_EQ(floorDiv(0, 5), 0);
}

TEST(IntMath, CeilDivMatchesMathematicalDefinition)
{
    EXPECT_EQ(ceilDiv(7, 2), 4);
    EXPECT_EQ(ceilDiv(-7, 2), -3);
    EXPECT_EQ(ceilDiv(7, -2), -3);
    EXPECT_EQ(ceilDiv(-7, -2), 4);
    EXPECT_EQ(ceilDiv(6, 3), 2);
}

TEST(IntMath, FloorModIsAlwaysNonNegativeForPositiveDivisor)
{
    for (int64_t a = -10; a <= 10; ++a) {
        int64_t m = floorMod(a, 4);
        EXPECT_GE(m, 0);
        EXPECT_LT(m, 4);
        EXPECT_EQ(floorDiv(a, 4) * 4 + m, a);
    }
}

TEST(IntMath, GcdAndLcm)
{
    EXPECT_EQ(gcd(12, 18), 6);
    EXPECT_EQ(gcd(-12, 18), 6);
    EXPECT_EQ(gcd(0, 5), 5);
    EXPECT_EQ(gcd(0, 0), 0);
    EXPECT_EQ(lcm(4, 6), 12);
    EXPECT_EQ(lcm(0, 6), 0);
}

TEST(IntMath, OverflowDetection)
{
    EXPECT_THROW(checkedMul(INT64_MAX, 2), PanicError);
    EXPECT_THROW(checkedAdd(INT64_MAX, 1), PanicError);
    EXPECT_THROW(checkedSub(INT64_MIN, 1), PanicError);
    EXPECT_EQ(checkedMul(1 << 20, 1 << 20), int64_t(1) << 40);
}

TEST(Rational, ArithmeticAndComparison)
{
    Rational a(1, 2), b(1, 3);
    EXPECT_EQ((a + b), Rational(5, 6));
    EXPECT_EQ((a - b), Rational(1, 6));
    EXPECT_EQ((a * b), Rational(1, 6));
    EXPECT_EQ((a / b), Rational(3, 2));
    EXPECT_TRUE(b < a);
    EXPECT_TRUE(a >= b);
}

TEST(Rational, NormalizationAndRounding)
{
    EXPECT_EQ(Rational(2, 4), Rational(1, 2));
    EXPECT_EQ(Rational(1, -2), Rational(-1, 2));
    EXPECT_EQ(Rational(7, 2).floor(), 3);
    EXPECT_EQ(Rational(7, 2).ceil(), 4);
    EXPECT_EQ(Rational(-7, 2).floor(), -4);
    EXPECT_EQ(Rational(-7, 2).ceil(), -3);
    EXPECT_THROW(Rational(1, 0), PanicError);
}

TEST(StrUtil, JoinAndSplit)
{
    std::vector<std::string> v{"a", "b", "c"};
    EXPECT_EQ(join(v, ", "), "a, b, c");
    EXPECT_EQ(split("a,b,c", ',').size(), 3u);
    EXPECT_EQ(split("a,b,c", ',')[1], "b");
    EXPECT_TRUE(split("", ',').empty());
}

TEST(StrUtil, TrimAndFormat)
{
    EXPECT_EQ(trim("  x y \n"), "x y");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(strformat("%d-%s", 3, "x"), "3-x");
}

TEST(JsonEscape, EveryAsciiByteAndUtf8RoundTripThroughParse)
{
    auto roundTrip = [](const std::string &s) {
        std::string quoted = "\"" + json::escape(s) + "\"";
        json::Value v;
        std::string err;
        EXPECT_TRUE(json::parse(quoted, &v, &err))
            << err << " in " << quoted;
        EXPECT_TRUE(v.isString()) << quoted;
        return v.string;
    };
    for (int c = 0x01; c <= 0x7f; ++c) {
        std::string s(1, char(c));
        EXPECT_EQ(roundTrip(s), s) << "byte 0x" << std::hex << c;
    }
    // Multi-byte UTF-8 (2, 3 and 4 bytes) passes through unescaped.
    const std::string utf8 = "caf\xc3\xa9 \xe2\x88\x80"
                             "x \xf0\x9f\x99\x82";
    EXPECT_EQ(json::escape(utf8), utf8);
    EXPECT_EQ(roundTrip(utf8), utf8);
}

/**
 * A seeded random JSON tree: objects and arrays nested up to
 * @p depth, strings of bytes 0x01-0x7f and multi-byte UTF-8, integers
 * up to +-2^53, and doubles drawn from raw bit patterns (subnormal to
 * huge exponents).
 */
json::Value
randomValue(std::mt19937_64 &rng, int depth)
{
    auto pick = [&](uint64_t n) { return rng() % n; };
    auto text = [&] {
        static const char *utf8[] = {"\xc3\xa9", "\xe2\x88\x80",
                                     "\xf0\x9f\x99\x82"};
        std::string out;
        for (uint64_t n = pick(8); n > 0; --n)
            out += pick(4) == 0 ? std::string(utf8[pick(3)])
                                : std::string(1, char(1 + pick(0x7f)));
        return out;
    };
    switch (pick(depth > 0 ? 7 : 5)) {
      case 0: return json::Value();
      case 1: return json::Value(pick(2) == 1);
      case 2: {
        const uint64_t span = (uint64_t(1) << 54) + 1;
        return json::Value(int64_t(pick(span)) - (int64_t(1) << 53));
      }
      case 3: {
        double d = std::numeric_limits<double>::infinity();
        while (!std::isfinite(d)) {
            uint64_t bits = rng();
            std::memcpy(&d, &bits, sizeof(d));
        }
        return json::Value(d);
      }
      case 4: return json::Value(text());
      case 5: {
        json::Value a(json::Value::Kind::Array);
        for (uint64_t n = pick(5); n > 0; --n)
            a.push(randomValue(rng, depth - 1));
        return a;
      }
      default: {
        json::Value o(json::Value::Kind::Object);
        for (uint64_t n = pick(5); n > 0; --n)
            o.set(text(), randomValue(rng, depth - 1));
        return o;
      }
    }
}

TEST(JsonWriter, ParseOfDumpIsTheIdentityOnSeededTrees)
{
    std::mt19937_64 rng(20261018);
    for (int i = 0; i < 3000; ++i) {
        json::Value v = randomValue(rng, 4);
        std::string text = json::dump(v);
        json::Value back;
        std::string err;
        ASSERT_TRUE(json::parse(text, &back, &err)) << err << "\n"
                                                    << text;
        ASSERT_TRUE(back == v) << text;
        EXPECT_EQ(json::dump(back), text);
    }
}

TEST(JsonWriter, PinsTheOneSpelling)
{
    json::Value b(json::Value::Kind::Array);
    b.push(true).push("x");
    json::Value v;
    v.set("a", 1).set("b", std::move(b));
    EXPECT_EQ(json::dump(v), "{\"a\": 1, \"b\": [true, \"x\"]}");
    // set() replaces a member in place; empty containers stay typed.
    v.set("a", 0.5).set("c", json::Value(json::Value::Kind::Object));
    EXPECT_EQ(json::dump(v),
              "{\"a\": 0.5, \"b\": [true, \"x\"], \"c\": {}}");
    EXPECT_EQ(json::dump(json::Value(std::vector<int64_t>{})), "[]");
}

TEST(JsonWriter, NonFiniteNumbersAreWrittenAsNull)
{
    const double inf = std::numeric_limits<double>::infinity();
    json::Value v;
    v.set("nan", std::numeric_limits<double>::quiet_NaN());
    v.set("inf", inf);
    v.set("-inf", -inf);
    EXPECT_EQ(json::dump(v),
              "{\"nan\": null, \"inf\": null, \"-inf\": null}");
}

TEST(JsonWriter, NumbersAreWrittenExactly)
{
    const double max_exact = 9007199254740992.0; // 2^53
    EXPECT_EQ(json::dump(100000000), "100000000");
    EXPECT_EQ(json::dump(-max_exact), "-9007199254740992");
    EXPECT_EQ(json::dump(0.1), "0.1");
    EXPECT_EQ(json::dump(1.0 / 3), "0.3333333333333333");
    // Integral values past 2^53 go out in exponent form, which the
    // reader accepts (it refuses such integer literals).
    EXPECT_EQ(json::dump(max_exact + 2), "9.007199254740994e+15");
    for (double d : {max_exact + 2, 1e300, 5e-324, -2.5e-308}) {
        json::Value back;
        ASSERT_TRUE(json::parse(json::dump(d), &back)) << d;
        EXPECT_EQ(back.number, d);
    }
}

TEST(JsonWriter, NegativeZeroKeepsItsSign)
{
    // "-0" is an RFC 8259 number, so parse(dump(d)) returns every
    // finite double bit for bit, the sign of zero included.
    EXPECT_EQ(json::dump(-0.0), "-0");
    EXPECT_EQ(json::dump(0.0), "0");
    for (double d : {-0.0, 0.0}) {
        json::Value back;
        ASSERT_TRUE(json::parse(json::dump(d), &back));
        EXPECT_EQ(std::signbit(back.number), std::signbit(d));
    }
}

TEST(JsonReader, RefusesNumbersADoubleCannotHold)
{
    json::Value v;
    EXPECT_TRUE(json::parse("9007199254740992", &v));
    EXPECT_EQ(v.number, 9007199254740992.0);
    EXPECT_TRUE(json::parse("-9007199254740992", &v));
    std::string err;
    for (const char *text : {"9007199254740993", "-9007199254740993",
                             "999999999999999999999999", "1e999"}) {
        EXPECT_FALSE(json::parse(text, &v, &err)) << text;
        EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    }
}

TEST(JsonReader, NumbersFollowRfc8259)
{
    json::Value v;
    std::string err;
    // strtod reads all of these; JSON's number grammar reads none,
    // and a run past the grammar is refused, not split in two.
    for (const char *text :
         {"+1", "1.", ".5", "007", "01", "-.5", "1.e5"}) {
        EXPECT_FALSE(json::parse(text, &v, &err)) << text;
        size_t pos = 0;
        EXPECT_FALSE(json::parseAt(text, &pos, &v)) << text;
        EXPECT_EQ(pos, 0u) << text;
    }
    const std::pair<const char *, double> valid[] = {
        {"-0", -0.0},     {"0.5", 0.5},         {"1e5", 1e5},
        {"1E+5", 1e5},    {"-1.5e-3", -1.5e-3},
        {"9007199254740992", 9007199254740992.0}};
    for (const auto &[text, want] : valid) {
        ASSERT_TRUE(json::parse(text, &v, &err)) << text << ": " << err;
        EXPECT_EQ(v.number, want) << text;
    }
    ASSERT_TRUE(json::parse("-0", &v));
    EXPECT_TRUE(std::signbit(v.number));
}

TEST(JsonReader, DecodesSurrogatePairs)
{
    // Python's default json.dumps (ensure_ascii) writes U+1F642 as a
    // UTF-16 surrogate pair; it decodes to one 4-byte character.
    json::Value v;
    std::string err;
    for (const char *text :
         {"\"\\ud83d\\ude42\"", "\"\\uD83D\\uDE42\""}) {
        ASSERT_TRUE(json::parse(text, &v, &err)) << text << ": " << err;
        EXPECT_EQ(v.string, "\xf0\x9f\x99\x82") << text;
    }
    json::Value back;
    ASSERT_TRUE(json::parse(json::dump(v), &back, &err)) << err;
    EXPECT_TRUE(back == v);

    // Half a pair encodes no character.
    for (const char *text :
         {"\"\\ud83d\"", "\"\\ude42\"", "\"\\ud83dx\"",
          "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\""}) {
        EXPECT_FALSE(json::parse(text, &v, &err)) << text;
        EXPECT_NE(err.find("surrogate"), std::string::npos) << err;
    }
}

TEST(JsonReader, ParseAtReadsOneValueAndLeavesTheRest)
{
    const std::string text = "xx {\"a\": [1, 2]}, {\"b\": tru}";
    size_t pos = 2;
    json::Value v;
    ASSERT_TRUE(json::parseAt(text, &pos, &v));
    EXPECT_EQ(json::dump(v), "{\"a\": [1, 2]}");
    EXPECT_EQ(text.substr(pos), ", {\"b\": tru}");
    size_t bad = pos + 1;
    std::string err;
    EXPECT_FALSE(json::parseAt(text, &bad, &v, &err));
    EXPECT_EQ(bad, pos + 1); // unmoved on failure
    EXPECT_NE(err.find("expected 'true'"), std::string::npos) << err;
    EXPECT_FALSE(json::parse(text.substr(2), &v, &err));
    EXPECT_NE(err.find("trailing garbage"), std::string::npos) << err;
}

TEST(Logging, FatalAndPanicThrowDistinctTypes)
{
    EXPECT_THROW(fatal("user error"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
    try {
        fatal("message text");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "message text");
    }
}

using Vec4 = support::SmallVec<int64_t, 4>;

TEST(SmallVec, StaysInlineUpToCapacityThenSpills)
{
    Vec4 v;
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.isInline());
    EXPECT_EQ(v.capacity(), 4u);
    for (int64_t i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_TRUE(v.isInline());
    v.push_back(4); // first element past the inline buffer
    EXPECT_FALSE(v.isInline());
    EXPECT_GE(v.capacity(), 5u);
    for (int64_t i = 0; i < 5; ++i)
        EXPECT_EQ(v[size_t(i)], i);
}

TEST(SmallVec, GrowthPreservesContentsAcrossManyDoublings)
{
    Vec4 v;
    std::vector<int64_t> ref;
    for (int64_t i = 0; i < 100; ++i) {
        v.push_back(i * 3 - 7);
        ref.push_back(i * 3 - 7);
    }
    EXPECT_EQ(v, ref);
    EXPECT_EQ(v.front(), ref.front());
    EXPECT_EQ(v.back(), ref.back());
}

TEST(SmallVec, ConstructorsMatchStdVectorSemantics)
{
    Vec4 filled(3, 9);
    EXPECT_EQ(filled, (std::vector<int64_t>{9, 9, 9}));
    Vec4 il{1, 2, 3, 4, 5, 6};
    EXPECT_FALSE(il.isInline());
    std::vector<int64_t> src{7, 8};
    Vec4 range(src.begin(), src.end());
    EXPECT_EQ(range, src);
}

TEST(SmallVec, CopySpilledAndInline)
{
    Vec4 small{1, 2};
    Vec4 big{1, 2, 3, 4, 5, 6, 7};
    Vec4 c1(small), c2(big);
    EXPECT_EQ(c1, small);
    EXPECT_EQ(c2, big);
    // Deep copy: mutating the copy leaves the original alone.
    c2[0] = 99;
    EXPECT_EQ(big[0], 1);
    c1 = big;
    EXPECT_EQ(c1, big);
    c2 = small;
    EXPECT_EQ(c2, small);
}

TEST(SmallVec, MoveStealsHeapAndCopiesInline)
{
    Vec4 big{1, 2, 3, 4, 5, 6, 7};
    const int64_t *heap = big.data();
    Vec4 stolen(std::move(big));
    EXPECT_EQ(stolen.data(), heap); // heap storage is stolen, not copied
    EXPECT_TRUE(big.empty());       // moved-from: empty but usable
    big.push_back(42);
    EXPECT_EQ(big.back(), 42);

    Vec4 small{5, 6};
    Vec4 moved(std::move(small));
    EXPECT_EQ(moved, (std::vector<int64_t>{5, 6}));
    EXPECT_TRUE(moved.isInline());
    Vec4 target{9, 9, 9, 9, 9, 9};
    target = std::move(moved);
    EXPECT_EQ(target, (std::vector<int64_t>{5, 6}));
}

TEST(SmallVec, SelfAssignmentIsANoOp)
{
    Vec4 v{1, 2, 3, 4, 5, 6};
    Vec4 &alias = v;
    v = alias;
    EXPECT_EQ(v, (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
    v = std::move(alias);
    EXPECT_EQ(v, (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
}

TEST(SmallVec, InsertEraseResizeMatchStdVector)
{
    Vec4 v{1, 2, 3};
    std::vector<int64_t> ref{1, 2, 3};
    v.insert(v.begin() + 1, 7);
    ref.insert(ref.begin() + 1, 7);
    v.insert(v.begin(), 2, 0); // forces the spill mid-insert
    ref.insert(ref.begin(), 2, 0);
    EXPECT_EQ(v, ref);
    v.erase(v.begin() + 1, v.begin() + 3);
    ref.erase(ref.begin() + 1, ref.begin() + 3);
    EXPECT_EQ(v, ref);
    v.resize(8, -1);
    ref.resize(8, -1);
    EXPECT_EQ(v, ref);
    v.resize(2);
    ref.resize(2);
    EXPECT_EQ(v, ref);
    v.pop_back();
    ref.pop_back();
    EXPECT_EQ(v, ref);
}

TEST(SmallVec, OrderingIsLexicographic)
{
    EXPECT_LT((Vec4{1, 2}), (Vec4{1, 3}));
    EXPECT_LT((Vec4{1, 2}), (Vec4{1, 2, 0}));
    EXPECT_FALSE((Vec4{2}) < (Vec4{1, 9, 9}));
    EXPECT_FALSE((Vec4{1, 2}) < (Vec4{1, 2}));
}

TEST(SmallVec, ScopedForceHeapSpillsEverythingOnThisThread)
{
    {
        support::ScopedForceHeap force;
        Vec4 v{1, 2};
        EXPECT_FALSE(v.isInline());
        EXPECT_EQ(v, (std::vector<int64_t>{1, 2}));
        {
            support::ScopedForceHeap nested;
            Vec4 w(1, 5);
            EXPECT_FALSE(w.isInline());
        }
        Vec4 still{3};
        EXPECT_FALSE(still.isInline()); // nesting restores, not clears
    }
    Vec4 after{1};
    EXPECT_TRUE(after.isInline());
}

TEST(ThreadPoolParallelFor, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            hits[size_t(i)].fetch_add(1,
                                      std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    EXPECT_EQ(pool.failureCount(), 0u);
}

TEST(ThreadPoolParallelFor, EmptyAndSingleRangesAreHandled)
{
    ThreadPool pool(2);
    std::atomic<int64_t> sum{0};
    pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) {
        sum.fetch_add(1);
    });
    EXPECT_EQ(sum.load(), 0);
    pool.parallelFor(5, 6, 1, [&](int64_t lo, int64_t hi) {
        sum.fetch_add(hi - lo);
    });
    EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPoolParallelFor, AutoGrainSplitsAcrossWorkers)
{
    ThreadPool pool(3);
    std::atomic<int> chunks{0};
    std::atomic<int64_t> covered{0};
    pool.parallelFor(0, 100, 0, [&](int64_t lo, int64_t hi) {
        chunks.fetch_add(1);
        covered.fetch_add(hi - lo);
    });
    EXPECT_EQ(covered.load(), 100);
    EXPECT_GT(chunks.load(), 1);
}

TEST(LruMap, EvictsLeastRecentlyUsedFirst)
{
    LruMap<int, std::string> lru(3);
    EXPECT_EQ(lru.insert(1, "a"), 0u);
    EXPECT_EQ(lru.insert(2, "b"), 0u);
    EXPECT_EQ(lru.insert(3, "c"), 0u);
    // Touch 1 so 2 becomes the coldest.
    ASSERT_NE(lru.find(1), nullptr);
    EXPECT_EQ(lru.insert(4, "d"), 1u);
    EXPECT_EQ(lru.find(2), nullptr); // evicted
    EXPECT_NE(lru.find(1), nullptr);
    EXPECT_NE(lru.find(3), nullptr);
    EXPECT_NE(lru.find(4), nullptr);
    EXPECT_EQ(lru.size(), 3u);
}

TEST(LruMap, WeightedCapacityAndOverwrite)
{
    LruMap<int, int> lru(10);
    lru.insert(1, 100, 4);
    lru.insert(2, 200, 4);
    EXPECT_EQ(lru.weight(), 8u);
    // Overwriting replaces the weight, it does not accumulate.
    lru.insert(1, 101, 6);
    EXPECT_EQ(lru.size(), 2u);
    EXPECT_EQ(lru.weight(), 10u);
    ASSERT_NE(lru.find(1), nullptr);
    EXPECT_EQ(*lru.find(1), 101);
    // One more unit evicts the coldest entry (2).
    EXPECT_EQ(lru.insert(3, 300, 1), 1u);
    EXPECT_EQ(lru.find(2), nullptr);
}

TEST(LruMap, SetCapacityShrinksAndFindIsStable)
{
    LruMap<int, int> lru(8);
    for (int i = 0; i < 8; ++i)
        lru.insert(i, i * 10);
    int *p = lru.find(7);
    ASSERT_NE(p, nullptr);
    // Shrinking evicts the coldest entries; the bumped 7 survives,
    // and its address stays valid (splice moves nodes, not values).
    EXPECT_EQ(lru.setCapacity(2), 6u);
    EXPECT_EQ(lru.size(), 2u);
    EXPECT_EQ(lru.find(0), nullptr);
    ASSERT_NE(lru.find(7), nullptr);
    EXPECT_EQ(lru.find(7), p);
    lru.clear();
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_EQ(lru.weight(), 0u);
}

TEST(LruMap, OversizedEntryIsEvictedWithEverythingElse)
{
    // An entry heavier than the whole capacity cannot fit even
    // alone: the insert evicts the old entries AND the new one.
    LruMap<int, int> lru(4);
    lru.insert(1, 10);
    lru.insert(2, 20);
    EXPECT_EQ(lru.insert(3, 30, 100), 3u);
    EXPECT_EQ(lru.size(), 0u);
    EXPECT_EQ(lru.weight(), 0u);
    EXPECT_EQ(lru.find(3), nullptr);
}

TEST(ThreadPoolDrain, CompletesEverythingInsideTheDeadline)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(pool.submit([&] { ++ran; }));
    ThreadPool::DrainResult dr = pool.drain(/*deadlineMs=*/5000);
    EXPECT_TRUE(dr.completed);
    EXPECT_EQ(dr.abandoned, 0u);
    EXPECT_EQ(ran.load(), 8);
    EXPECT_TRUE(pool.draining());
}

TEST(ThreadPoolDrain, AbandonsQueuedJobsAndRunsTheirDestructors)
{
    // One worker parked on a latch; everything queued behind it is
    // abandoned when the drain deadline expires -- but abandoned
    // closures are *destroyed*, so their RAII guards still fire.
    ThreadPool pool(1);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    pool.submit([&] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
    });

    struct Guard
    {
        std::atomic<int> *fired;
        ~Guard() { ++*fired; }
    };
    std::atomic<int> fired{0};
    std::atomic<int> ran{0};
    for (int i = 0; i < 3; ++i) {
        auto guard = std::make_shared<Guard>();
        guard->fired = &fired;
        pool.submit([&ran, guard] { ++ran; });
    }

    ThreadPool::DrainResult dr = pool.drain(/*deadlineMs=*/50);
    EXPECT_FALSE(dr.completed);
    EXPECT_EQ(dr.abandoned, 3u);
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(fired.load(), 3); // destructors ran at abandonment

    // Intake is closed for good: later submits are rejected and
    // counted, and the rejected closure is destroyed too.
    {
        auto guard = std::make_shared<Guard>();
        guard->fired = &fired;
        EXPECT_FALSE(pool.submit([guard] {}));
    }
    EXPECT_EQ(pool.rejectedCount(), 1u);
    EXPECT_EQ(fired.load(), 4);

    // Unpark the worker so the destructor's join can finish.
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    pool.wait();
}

TEST(RetryPolicy, ScheduleIsExactAndCapped)
{
    RetryPolicy p;
    p.attempts = 5;
    p.baseMs = 1.0;
    p.multiplier = 2.0;
    p.capMs = 6.0;
    // 1, 2, 4, then the cap, forever after.
    EXPECT_DOUBLE_EQ(p.delayMs(0), 1.0);
    EXPECT_DOUBLE_EQ(p.delayMs(1), 2.0);
    EXPECT_DOUBLE_EQ(p.delayMs(2), 4.0);
    EXPECT_DOUBLE_EQ(p.delayMs(3), 6.0);
    EXPECT_DOUBLE_EQ(p.delayMs(10), 6.0);

    // attempts counts the first try: 5 attempts = 4 retries (0..3).
    EXPECT_TRUE(p.shouldRetry(0));
    EXPECT_TRUE(p.shouldRetry(3));
    EXPECT_FALSE(p.shouldRetry(4));
    RetryPolicy once;
    once.attempts = 1;
    EXPECT_FALSE(once.shouldRetry(0));
}

TEST(RetryPolicy, BackoffUsesTheInjectedSleep)
{
    RetryPolicy p;
    p.attempts = 4;
    p.baseMs = 3.0;
    p.multiplier = 10.0;
    p.capMs = 50.0;
    std::vector<double> slept;
    p.sleep = [&](double ms) { slept.push_back(ms); };
    for (unsigned retry = 0; p.shouldRetry(retry); ++retry)
        p.backoff(retry);
    ASSERT_EQ(slept.size(), 3u);
    EXPECT_DOUBLE_EQ(slept[0], 3.0);
    EXPECT_DOUBLE_EQ(slept[1], 30.0);
    EXPECT_DOUBLE_EQ(slept[2], 50.0);
}

TEST(ThreadPoolParallelFor, ExceptionsAreCapturedNotPropagated)
{
    ThreadPool pool(2);
    std::atomic<int64_t> covered{0};
    pool.parallelFor(0, 10, 1, [&](int64_t lo, int64_t hi) {
        if (lo == 4)
            throw std::runtime_error("chunk failed");
        covered.fetch_add(hi - lo);
    });
    // The failing chunk is recorded; every other chunk still ran.
    EXPECT_EQ(pool.failureCount(), 1u);
    EXPECT_EQ(covered.load(), 9);
    auto fails = pool.takeFailures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_NE(fails[0].find("chunk failed"), std::string::npos);
    EXPECT_EQ(pool.failureCount(), 0u);
}

} // namespace
} // namespace polyfuse
