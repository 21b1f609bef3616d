#include "ctrl/ctrl.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace clumsy::ctrl
{

/** Names in enum order. */
constexpr const char *kKindNames[] = {"fib-insert", "fib-withdraw",
                                      "nat-add", "nat-remove",
                                      "session-flush"};
constexpr const char *kMixNames[] = {"fib", "nat", "session", "all"};

std::string
to_string(CtrlEventKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

std::string
to_string(CtrlMix mix)
{
    return kMixNames[static_cast<std::size_t>(mix)];
}

CtrlMix
mixFromString(const std::string &name)
{
    for (std::size_t i = 0; i < std::size(kMixNames); ++i) {
        if (name == kMixNames[i])
            return static_cast<CtrlMix>(i);
    }
    fatal("unknown ctrl mix '%s' (valid choices: fib, nat, session, "
          "all)",
          name.c_str());
}

namespace
{

/**
 * The streaming generator: geometric inter-event gaps at `rate`
 * events per 1000 packets, kinds drawn from the mix, keys drawn with
 * the trace generator's own flow recipe from a decorrelated RNG. The
 * recipe is immutable and shared, so a clone copies only the RNG and
 * the cursor.
 */
class ChurnCtrlSource final : public CtrlSource
{
  public:
    ChurnCtrlSource(const CtrlConfig &config,
                    const net::TraceConfig &trace)
        : config_(config),
          recipe_(std::make_shared<const net::FlowRecipe>(trace)),
          rng_(trace.seed ^ kCtrlSeedSalt)
    {
        step();
    }

    const CtrlEvent *peek() override { return &event_; }

    void advance() override { step(); }

    std::unique_ptr<CtrlSource> clone() const override
    {
        return std::make_unique<ChurnCtrlSource>(*this);
    }

  private:
    void step()
    {
        // Exponential inter-event gap with mean 1000/rate packets,
        // floored at one packet so events stay strictly interleaved
        // with forwarding rather than bursting unboundedly.
        const double gap =
            rng_.exponential(static_cast<double>(config_.rate) / 1000.0);
        pos_ += 1 + static_cast<std::uint64_t>(gap);
        event_ = draw();
        event_.beforePacket = pos_;
        event_.seq = seq_++;
    }

    CtrlEvent draw()
    {
        CtrlEvent ev;
        ev.kind = drawKind();
        const net::FlowTuple flow = recipe_->draw(rng_);
        switch (ev.kind) {
        case CtrlEventKind::FibInsert:
        case CtrlEventKind::FibWithdraw: {
            // A prefix covering a pool destination, 8..24 bits: short
            // enough to alias many flows, long enough to need a deep
            // tree-bitmap walk.
            const auto len =
                static_cast<std::uint8_t>(8 + rng_.below(17));
            const std::uint32_t mask =
                len == 0 ? 0 : 0xffffffffu << (32 - len);
            ev.key = flow.dst & mask;
            ev.prefixLen = len;
            ev.value = ev.key ^ 0x01010101u; // nexthop, RouteTable-style
            break;
        }
        case CtrlEventKind::NatAdd:
        case CtrlEventKind::NatRemove:
            ev.key = flow.src; // a private 10/8 source
            break;
        case CtrlEventKind::SessionFlush:
            ev.key = static_cast<std::uint32_t>(rng_.next());
            ev.value = 64; // slots flushed per event
            break;
        }
        return ev;
    }

    CtrlEventKind drawKind()
    {
        switch (config_.mix) {
        case CtrlMix::Fib:
            // Inserts outnumber withdraws so the FIB grows, then
            // churns around a working size.
            return rng_.below(10) < 7 ? CtrlEventKind::FibInsert
                                      : CtrlEventKind::FibWithdraw;
        case CtrlMix::Nat:
            return rng_.below(2) == 0 ? CtrlEventKind::NatAdd
                                      : CtrlEventKind::NatRemove;
        case CtrlMix::Session:
            return CtrlEventKind::SessionFlush;
        case CtrlMix::All:
            break;
        }
        const std::uint64_t r = rng_.below(8);
        if (r < 3)
            return CtrlEventKind::FibInsert;
        if (r < 5)
            return CtrlEventKind::FibWithdraw;
        if (r == 5)
            return CtrlEventKind::NatAdd;
        if (r == 6)
            return CtrlEventKind::NatRemove;
        return CtrlEventKind::SessionFlush;
    }

    CtrlConfig config_;
    std::shared_ptr<const net::FlowRecipe> recipe_;
    Rng rng_;
    CtrlEvent event_;
    std::uint64_t pos_ = 0;
    std::uint64_t seq_ = 0;
};

} // namespace

std::unique_ptr<CtrlSource>
makeCtrlSource(const CtrlConfig &config, const net::TraceConfig &trace)
{
    if (config.rate == 0)
        return nullptr;
    return std::make_unique<ChurnCtrlSource>(config, trace);
}

} // namespace clumsy::ctrl
