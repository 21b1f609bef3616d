/**
 * @file
 * Tests of clumsy::Fiber (src/common/fiber.hh): the state a switch
 * must carry — values the compiler keeps in callee-saved registers
 * across resume() and yield(), the rounding mode and MXCSR — survives
 * in both directions; several fibers interleave in a fixed order;
 * deep recursion runs on a fiber's own stack; finished() tracks the
 * body; and a released stack is reused on its thread, by a plain
 * fiber and by a line card's chips.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "apps/app.hh"
#include "common/fiber.hh"
#include "linecard/card.hh"

using namespace clumsy;

namespace
{

/**
 * Opaque to the optimizer, so values derived from it cannot be folded
 * into constants and must live in registers or stack slots.
 */
std::uint64_t
opaque(std::uint64_t v)
{
    asm volatile("" : "+r"(v));
    return v;
}

/** Six values kept live across @p across, then folded together. */
template <typename Across>
std::uint64_t
liveAcross(std::uint64_t seed, Across &&across)
{
    const std::uint64_t a = opaque(seed * 3 + 1);
    const std::uint64_t b = opaque(seed * 5 + 2);
    const std::uint64_t c = opaque(seed * 7 + 3);
    const std::uint64_t d = opaque(seed * 11 + 4);
    const std::uint64_t e = opaque(seed * 13 + 5);
    const std::uint64_t f = opaque(seed * 17 + 6);
    across();
    return opaque(a) ^ (opaque(b) << 1) ^ (opaque(c) << 2) ^
           (opaque(d) << 3) ^ (opaque(e) << 4) ^ (opaque(f) << 5);
}

std::uint64_t
expected(std::uint64_t seed)
{
    return (seed * 3 + 1) ^ ((seed * 5 + 2) << 1) ^ ((seed * 7 + 3) << 2) ^
           ((seed * 11 + 4) << 3) ^ ((seed * 13 + 5) << 4) ^
           ((seed * 17 + 6) << 5);
}

} // namespace

TEST(Fiber, CalleeSavedValuesSurviveBothDirections)
{
    std::vector<std::uint64_t> inside;
    Fiber fiber([&] {
        for (std::uint64_t s = 100; s < 104; ++s)
            inside.push_back(liveAcross(s, [&] { fiber.yield(); }));
    });
    std::vector<std::uint64_t> outside;
    for (std::uint64_t s = 0; !fiber.finished(); ++s)
        outside.push_back(liveAcross(s, [&] { fiber.resume(); }));

    ASSERT_EQ(inside.size(), 4u);
    ASSERT_EQ(outside.size(), 5u);
    for (std::uint64_t s = 0; s < inside.size(); ++s)
        EXPECT_EQ(inside[s], expected(100 + s)) << s;
    for (std::uint64_t s = 0; s < outside.size(); ++s)
        EXPECT_EQ(outside[s], expected(s)) << s;
}

TEST(Fiber, RoundingModeAndMxcsrSurviveBothDirections)
{
    const int saved = std::fegetround();
#if defined(__x86_64__)
    const unsigned savedCsr = _mm_getcsr();
    constexpr unsigned kFtz = 0x8000; // flush-to-zero
#endif
    std::vector<int> insideModes;
    Fiber fiber([&] {
        std::fesetround(FE_TOWARDZERO);
#if defined(__x86_64__)
        _mm_setcsr(_mm_getcsr() | kFtz);
#endif
        fiber.yield();
        insideModes.push_back(std::fegetround());
#if defined(__x86_64__)
        EXPECT_NE(_mm_getcsr() & kFtz, 0u);
#endif
        std::fesetround(FE_DOWNWARD);
        fiber.yield();
        insideModes.push_back(std::fegetround());
    });

    std::fesetround(FE_UPWARD);
    fiber.resume();
    EXPECT_EQ(std::fegetround(), FE_UPWARD);
#if defined(__x86_64__)
    EXPECT_EQ(_mm_getcsr() & kFtz, 0u);
#endif
    fiber.resume();
    EXPECT_EQ(std::fegetround(), FE_UPWARD);
    std::fesetround(FE_TONEAREST);
    fiber.resume();
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(insideModes, (std::vector<int>{FE_TOWARDZERO, FE_DOWNWARD}));

    std::fesetround(saved);
#if defined(__x86_64__)
    _mm_setcsr(savedCsr);
#endif
}

TEST(Fiber, EightFibersInterleaveInAFixedOrder)
{
    constexpr unsigned kFibers = 8;
    std::vector<unsigned> log;
    std::vector<std::unique_ptr<Fiber>> fibers;
    for (unsigned i = 0; i < kFibers; ++i) {
        fibers.push_back(std::make_unique<Fiber>([&, i] {
            // Fiber i takes i + 1 turns.
            for (unsigned turn = 0; turn <= i; ++turn) {
                log.push_back(i * 100 + turn);
                fibers[i]->yield();
            }
        }));
    }

    // Round-robin until every fiber is done: round r runs every fiber
    // that still has a turn r, in index order.
    for (bool any = true; any;) {
        any = false;
        for (const std::unique_ptr<Fiber> &f : fibers) {
            if (!f->finished()) {
                f->resume();
                any = true;
            }
        }
    }

    std::vector<unsigned> want;
    for (unsigned round = 0; round < kFibers; ++round)
        for (unsigned i = round; i < kFibers; ++i)
            want.push_back(i * 100 + round);
    EXPECT_EQ(log, want);
}

namespace
{

/** Recursion that keeps a frame's worth of bytes live at every depth. */
std::uint64_t
descend(unsigned depth)
{
    volatile std::uint8_t frame[64];
    for (unsigned i = 0; i < sizeof(frame); ++i)
        frame[i] = static_cast<std::uint8_t>(depth + i);
    const std::uint64_t below = depth == 0 ? 0 : descend(depth - 1);
    std::uint64_t sum = below;
    for (unsigned i = 0; i < sizeof(frame); ++i)
        sum += frame[i];
    return sum;
}

} // namespace

TEST(Fiber, DeepRecursionRunsOnTheFiberStack)
{
    // 400 frames of at least 64 live bytes each: well past a page,
    // well inside Fiber::kStackBytes even with sanitizer redzones.
    constexpr unsigned kDepth = 400;
    std::uint64_t got = 0;
    Fiber fiber([&] {
        got = descend(kDepth);
        fiber.yield();
        got += descend(kDepth); // again, after a switch out and back
    });
    fiber.resume();
    const std::uint64_t once = descend(kDepth);
    EXPECT_EQ(got, once);
    fiber.resume();
    EXPECT_EQ(got, 2 * once);
    EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, FinishedTracksTheBody)
{
    unsigned steps = 0;
    Fiber fiber([&] {
        ++steps;
        fiber.yield();
        ++steps;
    });
    EXPECT_FALSE(fiber.finished()); // constructed: nothing ran
    EXPECT_EQ(steps, 0u);
    fiber.resume();
    EXPECT_FALSE(fiber.finished()); // yielded mid-body
    EXPECT_EQ(steps, 1u);
    fiber.resume();
    EXPECT_TRUE(fiber.finished()); // returned
    EXPECT_EQ(steps, 2u);

    Fiber empty([] {});
    EXPECT_FALSE(empty.finished());
    empty.resume();
    EXPECT_TRUE(empty.finished());
}

namespace
{

/**
 * Run a fiber whose body records the address of one of its locals,
 * recurses @p depth frames, yields once and recurses again. @return
 * the sum of the recursions, which a body finishing correctly makes
 * 2 * descend(depth).
 */
std::uint64_t
recurseOnFiber(unsigned depth, const void *&frame)
{
    std::uint64_t got = 0;
    Fiber fiber([&] {
        const volatile char marker = 0;
        frame = const_cast<const char *>(&marker);
        got = descend(depth);
        fiber.yield();
        got += descend(depth);
    });
    while (!fiber.finished())
        fiber.resume();
    return got;
}

} // namespace

TEST(Fiber, BodyFinishesOnAReusedStack)
{
    // The second fiber takes the stack the first released: its body's
    // frame sits at the same address, no mapping is made, and the body
    // still runs to completion through deep recursion and a switch.
    constexpr unsigned kDepth = 400;
    const std::uint64_t want = 2 * descend(kDepth);
    const void *first = nullptr;
    EXPECT_EQ(recurseOnFiber(kDepth, first), want);
    const std::uint64_t mapped = Fiber::stacksMapped();
    const void *second = nullptr;
    EXPECT_EQ(recurseOnFiber(kDepth, second), want);
    EXPECT_EQ(second, first);
    EXPECT_EQ(Fiber::stacksMapped(), mapped);
}

TEST(Fiber, TwoCardRunsReuseTheSameStacks)
{
    // A line card runs each chip on a fiber of the calling thread: the
    // first run maps what the thread has not released yet, and a
    // second run on the same thread maps nothing and computes the same
    // result on the reused stacks.
    core::ExperimentConfig cfg;
    cfg.numPackets = 200;
    npu::NpuConfig npuCfg;
    npuCfg.peCount = 2;
    linecard::CardConfig card;
    card.chips = 4;
    card.dram.banks = 8;
    const core::AppFactory factory = apps::appFactory("route");
    const std::uint64_t before = Fiber::stacksMapped();
    const linecard::CardRunResult a =
        linecard::runCard(factory, cfg, npuCfg, card);
    const std::uint64_t afterFirst = Fiber::stacksMapped();
    EXPECT_LE(afterFirst - before, card.chips);
    const linecard::CardRunResult b =
        linecard::runCard(factory, cfg, npuCfg, card);
    EXPECT_EQ(Fiber::stacksMapped(), afterFirst);
    EXPECT_EQ(a.valueDigest, b.valueDigest);
    EXPECT_EQ(a.card.packetsProcessed, 200.0);
    EXPECT_EQ(b.card.packetsProcessed, 200.0);
}
