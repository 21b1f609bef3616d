#include "mem/recovery.hh"

#include "common/logging.hh"

namespace clumsy::mem
{

std::string
to_string(RecoveryScheme scheme)
{
    switch (scheme) {
      case RecoveryScheme::NoDetection:
        return "no detection";
      case RecoveryScheme::OneStrike:
        return "one-strike";
      case RecoveryScheme::TwoStrike:
        return "two-strike";
      case RecoveryScheme::ThreeStrike:
        return "three-strike";
    }
    panic("unreachable recovery scheme");
}

RecoveryScheme
recoverySchemeFromString(const std::string &name)
{
    for (auto scheme : kAllRecoverySchemes) {
        if (to_string(scheme) == name)
            return scheme;
    }
    fatal("unknown recovery scheme '%s'", name.c_str());
}

} // namespace clumsy::mem
