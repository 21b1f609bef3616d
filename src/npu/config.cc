#include "npu/config.hh"

#include "common/logging.hh"

namespace clumsy::npu
{

std::string
to_string(DispatchPolicy policy)
{
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        return "rr";
      case DispatchPolicy::FlowHash:
        return "flow";
      case DispatchPolicy::ShortestQueue:
        return "shortest";
    }
    panic("unreachable dispatch policy");
}

DispatchPolicy
dispatchFromString(const std::string &name)
{
    if (name == "rr" || name == "round-robin")
        return DispatchPolicy::RoundRobin;
    if (name == "flow" || name == "flow-hash")
        return DispatchPolicy::FlowHash;
    if (name == "shortest" || name == "shortest-queue")
        return DispatchPolicy::ShortestQueue;
    fatal("unknown dispatch policy '%s' (valid choices: rr, flow, "
          "shortest)",
          name.c_str());
}

std::string
to_string(DvsMode mode)
{
    switch (mode) {
      case DvsMode::Static:
        return "static";
      case DvsMode::Fault:
        return "fault";
      case DvsMode::Queue:
        return "queue";
    }
    panic("unreachable dvs mode");
}

DvsMode
dvsFromString(const std::string &name)
{
    if (name == "static")
        return DvsMode::Static;
    if (name == "fault")
        return DvsMode::Fault;
    if (name == "queue")
        return DvsMode::Queue;
    fatal("unknown dvs mode '%s' (valid choices: static, fault, "
          "queue)",
          name.c_str());
}

std::string
to_string(L2Mode mode)
{
    switch (mode) {
      case L2Mode::Private:
        return "private";
      case L2Mode::Shared:
        return "shared";
    }
    panic("unreachable L2 mode");
}

L2Mode
l2ModeFromString(const std::string &name)
{
    if (name == "private")
        return L2Mode::Private;
    if (name == "shared")
        return L2Mode::Shared;
    fatal("unknown L2 mode '%s' (valid choices: private, shared)",
          name.c_str());
}

void
NpuConfig::validate(const mem::HierarchyConfig &hier) const
{
    // User-settable knobs (CLI flags, sweep axes): bad values are bad
    // configuration, not simulator bugs.
    if (peCount < 1)
        fatal("a chip needs at least one engine, got %u", peCount);
    if (queueCapacity < 1)
        fatal("engine queues need room for a packet, got capacity %u",
              queueCapacity);
    if (arrivalGapCycles < 0)
        fatal("arrival gap must be >= 0, got %lld",
              static_cast<long long>(arrivalGapCycles));
    if (!perPeCr.empty() && perPeCr.size() != peCount)
        fatal("per-engine Cr list names %zu engines but the chip has "
              "%u; it must name every engine",
              perPeCr.size(), peCount);
    for (double cr : perPeCr) {
        if (cr <= 0.0 || cr > 1.0)
            fatal("per-engine Cr %g outside (0, 1]", cr);
    }
    if (mshrs < 1)
        fatal("the L2 port needs at least one MSHR, got %u", mshrs);

    CLUMSY_ASSERT(clockMhz > 0.0, "clock must be positive");
    // The single-engine-equivalence requirement: port service must be
    // coverable by the access's own embedded L2 latency, otherwise a
    // lone engine would queue behind itself.
    CLUMSY_ASSERT(portHitCycles >= 0 &&
                      portHitCycles <= hier.l2HitCycles,
                  "port hit service exceeds the L2 hit latency");
    CLUMSY_ASSERT(portMissCycles >= 0 &&
                      portMissCycles <= hier.l2HitCycles + hier.memCycles,
                  "port miss service exceeds the L2 miss latency");
}

} // namespace clumsy::npu
