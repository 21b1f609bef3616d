/**
 * @file
 * Tests of the control-plane churn subsystem (src/ctrl/): the seeded
 * event stream (determinism, seed decorrelation, rate scaling, mix
 * filtering, the streaming contract), the RCU epoch/grace-period
 * domain, and the harness-level interleave (events applied in golden
 * runs, rate-0 bit-identity, nat/session update hooks).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "apps/nat.hh"
#include "apps/session.hh"
#include "core/experiment.hh"
#include "ctrl/ctrl.hh"
#include "ctrl/rcu.hh"
#include "net/trace_gen.hh"

using namespace clumsy;
using ctrl::CtrlConfig;
using ctrl::CtrlEvent;
using ctrl::CtrlEventKind;
using ctrl::CtrlMix;
using ctrl::RcuDomain;

namespace
{

net::TraceConfig
traceConfig(std::uint64_t seed = 1)
{
    net::TraceConfig tc;
    tc.seed = seed;
    tc.numFlows = 64;
    tc.numDestinations = 128;
    return tc;
}

/** Drain up to @p n events into a vector. */
std::vector<CtrlEvent>
drain(ctrl::CtrlSource &src, std::size_t n)
{
    std::vector<CtrlEvent> out;
    while (out.size() < n) {
        const CtrlEvent *ev = src.peek();
        if (!ev)
            break;
        out.push_back(*ev);
        src.advance();
    }
    return out;
}

/** Two event runs are equal field for field. */
void
expectSameEvents(const std::vector<CtrlEvent> &a,
                 const std::vector<CtrlEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].beforePacket, b[i].beforePacket) << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_EQ(a[i].key, b[i].key) << i;
        EXPECT_EQ(a[i].prefixLen, b[i].prefixLen) << i;
        EXPECT_EQ(a[i].value, b[i].value) << i;
        EXPECT_EQ(a[i].seq, b[i].seq) << i;
    }
}

} // namespace

// ---- the stream ----------------------------------------------------

TEST(CtrlSource, RateZeroYieldsNoSource)
{
    CtrlConfig cfg; // rate 0 by default
    EXPECT_EQ(ctrl::makeCtrlSource(cfg, traceConfig()), nullptr);
}

TEST(CtrlSource, ScheduleIsDeterministic)
{
    CtrlConfig cfg;
    cfg.rate = 50;
    const auto a = ctrl::makeCtrlSource(cfg, traceConfig());
    const auto b = ctrl::makeCtrlSource(cfg, traceConfig());
    ASSERT_NE(a, nullptr);
    const auto ea = drain(*a, 200);
    const auto eb = drain(*b, 200);
    ASSERT_EQ(ea.size(), 200u);
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].beforePacket, eb[i].beforePacket);
        EXPECT_EQ(ea[i].kind, eb[i].kind);
        EXPECT_EQ(ea[i].key, eb[i].key);
        EXPECT_EQ(ea[i].prefixLen, eb[i].prefixLen);
        EXPECT_EQ(ea[i].value, eb[i].value);
        EXPECT_EQ(ea[i].seq, i);
    }
}

TEST(CtrlSource, CloneContinuesTheSchedule)
{
    CtrlConfig cfg;
    cfg.rate = 100;
    const auto reference = drain(*ctrl::makeCtrlSource(cfg, traceConfig()),
                                 300);
    ASSERT_EQ(reference.size(), 300u);
    const std::vector<CtrlEvent> tail(reference.begin() + 100,
                                      reference.end());

    // A clone taken at event 100 yields the original's remaining
    // events; draining the original first leaves the clone where it
    // was taken.
    const auto src = ctrl::makeCtrlSource(cfg, traceConfig());
    drain(*src, 100);
    const auto copy = src->clone();
    expectSameEvents(drain(*src, 200), tail);
    expectSameEvents(drain(*copy, 200), tail);

    // The other way round: a clone of an unstarted source runs ahead,
    // and the original still starts at event 0.
    const auto fresh = ctrl::makeCtrlSource(cfg, traceConfig());
    const auto ahead = fresh->clone();
    expectSameEvents(drain(*ahead, 100),
                     std::vector<CtrlEvent>(reference.begin(),
                                            reference.begin() + 100));
    expectSameEvents(drain(*fresh, 300), reference);
}

TEST(CtrlSource, SchedulePositionsAreMonotone)
{
    CtrlConfig cfg;
    cfg.rate = 200;
    const auto src = ctrl::makeCtrlSource(cfg, traceConfig());
    const auto events = drain(*src, 500);
    ASSERT_EQ(events.size(), 500u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].beforePacket, events[i - 1].beforePacket);
}

TEST(CtrlSource, DifferentSeedsGiveDifferentSchedules)
{
    CtrlConfig cfg;
    cfg.rate = 50;
    const auto a = ctrl::makeCtrlSource(cfg, traceConfig(1));
    const auto b = ctrl::makeCtrlSource(cfg, traceConfig(2));
    const auto ea = drain(*a, 64);
    const auto eb = drain(*b, 64);
    bool differ = false;
    for (std::size_t i = 0; i < ea.size() && !differ; ++i)
        differ = ea[i].beforePacket != eb[i].beforePacket ||
                 ea[i].key != eb[i].key;
    EXPECT_TRUE(differ);
}

TEST(CtrlSource, RateControlsEventDensity)
{
    auto countBefore = [](std::uint32_t rate, std::uint64_t horizon) {
        CtrlConfig cfg;
        cfg.rate = rate;
        const auto src = ctrl::makeCtrlSource(cfg, traceConfig());
        std::uint64_t n = 0;
        while (const CtrlEvent *ev = src->peek()) {
            if (ev->beforePacket >= horizon)
                break;
            ++n;
            src->advance();
        }
        return n;
    };
    // rate is events per 1000 packets: expect the empirical density
    // within a factor of two of nominal over a long horizon.
    const std::uint64_t at100 = countBefore(100, 20000);
    EXPECT_GT(at100, 1000u);
    EXPECT_LT(at100, 4000u);
    // A 10x rate produces clearly more events.
    const std::uint64_t at10 = countBefore(10, 20000);
    EXPECT_GT(at100, 4 * at10);
}

TEST(CtrlSource, MixFiltersEventKinds)
{
    auto kindsOf = [](CtrlMix mix) {
        CtrlConfig cfg;
        cfg.rate = 100;
        cfg.mix = mix;
        const auto src = ctrl::makeCtrlSource(cfg, traceConfig());
        return drain(*src, 200);
    };
    for (const CtrlEvent &ev : kindsOf(CtrlMix::Fib))
        EXPECT_TRUE(ev.kind == CtrlEventKind::FibInsert ||
                    ev.kind == CtrlEventKind::FibWithdraw);
    for (const CtrlEvent &ev : kindsOf(CtrlMix::Nat))
        EXPECT_TRUE(ev.kind == CtrlEventKind::NatAdd ||
                    ev.kind == CtrlEventKind::NatRemove);
    for (const CtrlEvent &ev : kindsOf(CtrlMix::Session))
        EXPECT_EQ(ev.kind, CtrlEventKind::SessionFlush);
    // The full mix eventually produces every kind.
    bool seen[5] = {};
    for (const CtrlEvent &ev : kindsOf(CtrlMix::All))
        seen[static_cast<int>(ev.kind)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(CtrlSource, FibEventsCarryValidPrefixes)
{
    CtrlConfig cfg;
    cfg.rate = 100;
    cfg.mix = CtrlMix::Fib;
    const auto src = ctrl::makeCtrlSource(cfg, traceConfig());
    for (const CtrlEvent &ev : drain(*src, 200)) {
        EXPECT_GE(ev.prefixLen, 1);
        EXPECT_LE(ev.prefixLen, 31);
        // The key is masked to its prefix length.
        const std::uint32_t mask =
            ev.prefixLen >= 32
                ? 0xffffffffu
                : ~((1u << (32 - ev.prefixLen)) - 1u);
        EXPECT_EQ(ev.key & mask, ev.key);
    }
}

TEST(CtrlSource, MixNamesRoundTrip)
{
    EXPECT_EQ(ctrl::mixFromString("fib"), CtrlMix::Fib);
    EXPECT_EQ(ctrl::mixFromString("nat"), CtrlMix::Nat);
    EXPECT_EQ(ctrl::mixFromString("session"), CtrlMix::Session);
    EXPECT_EQ(ctrl::mixFromString("all"), CtrlMix::All);
    EXPECT_EQ(ctrl::to_string(CtrlMix::Fib), "fib");
    EXPECT_EQ(ctrl::to_string(CtrlMix::Session), "session");
    EXPECT_EQ(ctrl::to_string(CtrlMix::All), "all");
    EXPECT_EQ(ctrl::to_string(CtrlEventKind::FibInsert), "fib-insert");
    EXPECT_EQ(ctrl::to_string(CtrlEventKind::NatRemove), "nat-remove");
    EXPECT_EQ(ctrl::to_string(CtrlEventKind::SessionFlush),
              "session-flush");
    EXPECT_DEATH(ctrl::mixFromString("bogus"), "valid choices");
}

// ---- the RCU domain ------------------------------------------------

TEST(RcuDomain, GracePeriodSpansTwoQuiescentPoints)
{
    RcuDomain rcu;
    rcu.retire(0x1000, 16);
    EXPECT_EQ(rcu.retired(), 1u);
    EXPECT_EQ(rcu.inGrace(), 1u);
    EXPECT_FALSE(rcu.isReclaimed(0x1000));
    // One quiescent point is not enough: a reader that started before
    // the retire may still hold the address.
    rcu.quiesce();
    EXPECT_FALSE(rcu.isReclaimed(0x1000));
    EXPECT_EQ(rcu.takeFree(16), 0u);
    // The second point completes the grace period.
    rcu.quiesce();
    EXPECT_TRUE(rcu.isReclaimed(0x1000));
    EXPECT_EQ(rcu.reclaimed(), 1u);
    EXPECT_EQ(rcu.inGrace(), 0u);
}

TEST(RcuDomain, TakeFreeMatchesSizeClassLifo)
{
    RcuDomain rcu;
    rcu.retire(0x1000, 16);
    rcu.retire(0x2000, 16);
    rcu.retire(0x3000, 32);
    rcu.quiesce();
    rcu.quiesce();
    // No block of that size: the caller must bump-allocate.
    EXPECT_EQ(rcu.takeFree(64), 0u);
    // LIFO within a size class; a taken block stops being reclaimed.
    EXPECT_EQ(rcu.takeFree(16), 0x2000u);
    EXPECT_FALSE(rcu.isReclaimed(0x2000));
    EXPECT_EQ(rcu.takeFree(16), 0x1000u);
    EXPECT_EQ(rcu.takeFree(16), 0u);
    EXPECT_EQ(rcu.takeFree(32), 0x3000u);
    EXPECT_EQ(rcu.reused(), 3u);
}

TEST(RcuDomain, LifoPerSizeAcrossInterleavedSizes)
{
    // Sizes interleave in retire order, and two sizes are first seen
    // after others (128 above every earlier one, 48 between them):
    // each size keeps its own LIFO order, and a block counts as
    // reclaimed exactly while it sits on a free list.
    RcuDomain rcu;
    rcu.retire(0x100, 16);
    rcu.retire(0x200, 64);
    rcu.retire(0x300, 16);
    rcu.retire(0x400, 64);
    rcu.quiesce();
    rcu.retire(0x500, 128);
    rcu.retire(0x600, 16);
    rcu.retire(0x800, 48);
    rcu.quiesce();
    // The second epoch's blocks are still in their grace period.
    EXPECT_TRUE(rcu.isReclaimed(0x300));
    EXPECT_FALSE(rcu.isReclaimed(0x500));
    EXPECT_EQ(rcu.takeFree(128), 0u);
    EXPECT_EQ(rcu.takeFree(48), 0u);
    rcu.quiesce();
    EXPECT_TRUE(rcu.isReclaimed(0x500));
    EXPECT_TRUE(rcu.isReclaimed(0x800));
    EXPECT_FALSE(rcu.isReclaimed(0x700)); // never retired
    EXPECT_EQ(rcu.takeFree(64), 0x400u);
    EXPECT_EQ(rcu.takeFree(16), 0x600u);
    EXPECT_EQ(rcu.takeFree(128), 0x500u);
    EXPECT_FALSE(rcu.isReclaimed(0x500));
    EXPECT_EQ(rcu.takeFree(48), 0x800u);
    EXPECT_EQ(rcu.takeFree(16), 0x300u);
    // A block retired again goes back on top of its size's list.
    rcu.retire(0x300, 16);
    rcu.quiesce();
    rcu.quiesce();
    EXPECT_EQ(rcu.takeFree(16), 0x300u);
    EXPECT_EQ(rcu.takeFree(16), 0x100u);
    EXPECT_EQ(rcu.takeFree(64), 0x200u);
    for (const SimSize size : {16u, 48u, 64u, 128u, 4096u})
        EXPECT_EQ(rcu.takeFree(size), 0u) << size;
    EXPECT_EQ(rcu.reused(), 8u);
}

/**
 * takeFree()'s exact per-size LIFO order decides the simulated address
 * of every reclaimed node, and so every lpm digest. A seeded mix of
 * allocations (reclaimed or fresh), retires and quiescent points over
 * three size classes must hand blocks out in the order recorded from
 * the original node-based (std::unordered_set) domain: the first takes
 * verbatim, the whole sequence as an FNV-1a fold.
 */
TEST(RcuDomain, TakeOrderMatchesRecordedReference)
{
    RcuDomain rcu;
    std::mt19937_64 rng(0x7c0de);
    std::vector<std::pair<SimAddr, SimSize>> live;
    SimAddr fresh = 0x10000;
    std::uint64_t fold = 0xcbf29ce484222325ull;
    std::vector<SimAddr> firstReuses;
    std::uint64_t takes = 0;
    for (unsigned op = 0; op < 20000; ++op) {
        switch (rng() % 4) {
          case 0:
          case 1: { // allocate: a reclaimed block, else bump
            const SimSize size = 16u << (rng() % 3);
            SimAddr addr = rcu.takeFree(size);
            if (addr != 0) {
                ++takes;
                fold = (fold ^ addr) * 1099511628211ull;
                if (firstReuses.size() < 12)
                    firstReuses.push_back(addr);
            } else {
                addr = fresh;
                fresh += size;
            }
            EXPECT_FALSE(rcu.isReclaimed(addr));
            live.emplace_back(addr, size);
            break;
          }
          case 2: { // unlink and retire a random live block
            if (live.empty())
                break;
            const std::size_t i = rng() % live.size();
            rcu.retire(live[i].first, live[i].second);
            live[i] = live.back();
            live.pop_back();
            break;
          }
          default:
            rcu.quiesce();
            break;
        }
    }
    const std::vector<SimAddr> wantFirst = {
        0x10000, 0x10050, 0x10050, 0x10010, 0x10060, 0x10100,
        0x100b0, 0x100a0, 0x10050, 0x10090, 0x10060, 0x100f0};
    EXPECT_EQ(firstReuses, wantFirst);
    EXPECT_EQ(takes, 5025u);
    EXPECT_EQ(fold, 0x7c305efe083fcb8full);
    EXPECT_EQ(rcu.reused(), takes);
}

TEST(RcuDomain, EpochCounterAdvances)
{
    RcuDomain rcu;
    EXPECT_EQ(rcu.epoch(), 0u);
    rcu.quiesce();
    rcu.quiesce();
    rcu.quiesce();
    EXPECT_EQ(rcu.epoch(), 3u);
}

// ---- harness interleave --------------------------------------------

TEST(CtrlHarness, GoldenRunAppliesEvents)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 400;
    cfg.ctrl.rate = 100;
    const auto golden =
        core::runGolden(apps::appFactory("lpm"), cfg);
    EXPECT_FALSE(golden.metrics.fatal);
    EXPECT_GT(golden.metrics.ctrlEventsApplied, 0u);
    EXPECT_EQ(golden.metrics.packetsProcessed, 400u);
}

TEST(CtrlHarness, RateZeroMatchesDefaultBitForBit)
{
    core::ExperimentConfig base;
    base.numPackets = 200;
    base.trials = 2;
    core::ExperimentConfig zero = base;
    zero.ctrl.rate = 0; // explicit no-op
    const auto a = core::runExperiment(apps::appFactory("nat"), base);
    const auto b = core::runExperiment(apps::appFactory("nat"), zero);
    EXPECT_EQ(a.golden.cyclesPerPacket, b.golden.cyclesPerPacket);
    EXPECT_EQ(a.golden.instructions, b.golden.instructions);
    EXPECT_EQ(a.golden.totalEnergyPj, b.golden.totalEnergyPj);
    EXPECT_EQ(a.fallibility, b.fallibility);
    EXPECT_EQ(a.golden.ctrlEventsApplied, 0u);
}

TEST(CtrlHarness, NatChurnAppliesWithoutDivergence)
{
    // NAT add/remove churn in a *golden* run must not create
    // golden-vs-faulty divergence by itself: the same events replay in
    // every run of the experiment.
    core::ExperimentConfig cfg;
    cfg.numPackets = 400;
    cfg.trials = 2;
    cfg.faultScale = 0.0; // fault-free faulty trials
    cfg.ctrl.rate = 100;
    cfg.ctrl.mix = CtrlMix::Nat;
    const auto res = core::runExperiment(apps::appFactory("nat"), cfg);
    EXPECT_GT(res.golden.ctrlEventsApplied, 0u);
    EXPECT_EQ(res.anyErrorProb, 0.0);
    EXPECT_EQ(res.fatalFraction, 0.0);
}

TEST(CtrlHarness, SessionFlushChurnAppliesWithoutDivergence)
{
    core::ExperimentConfig cfg;
    cfg.numPackets = 400;
    cfg.trials = 2;
    cfg.faultScale = 0.0;
    cfg.ctrl.rate = 50;
    cfg.ctrl.mix = CtrlMix::Session;
    const auto res =
        core::runExperiment(apps::appFactory("session"), cfg);
    EXPECT_GT(res.golden.ctrlEventsApplied, 0u);
    EXPECT_EQ(res.anyErrorProb, 0.0);
    EXPECT_EQ(res.fatalFraction, 0.0);
}

TEST(CtrlHarness, EventsIgnoredByForeignApps)
{
    // crc has no tables: every event is a no-op and the run completes
    // with zero applied events.
    core::ExperimentConfig cfg;
    cfg.numPackets = 200;
    cfg.ctrl.rate = 100;
    const auto golden =
        core::runGolden(apps::appFactory("crc"), cfg);
    EXPECT_EQ(golden.metrics.ctrlEventsApplied, 0u);
    EXPECT_EQ(golden.metrics.packetsProcessed, 200u);
}
