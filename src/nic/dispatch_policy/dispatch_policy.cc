#include "src/nic/dispatch_policy/dispatch_policy.h"

namespace lauberhorn {

const char* ToString(DispatchPolicyKind kind) {
  switch (kind) {
    case DispatchPolicyKind::kLegacy:
      return "legacy";
    case DispatchPolicyKind::kDFcfs:
      return "d-fcfs";
    case DispatchPolicyKind::kCFcfs:
      return "c-fcfs";
    case DispatchPolicyKind::kJbsq:
      return "jbsq";
  }
  return "unknown";
}

std::optional<DispatchPolicyKind> ParseDispatchPolicyKind(
    const std::string& name) {
  if (name == "legacy") return DispatchPolicyKind::kLegacy;
  if (name == "d-fcfs" || name == "dfcfs") return DispatchPolicyKind::kDFcfs;
  if (name == "c-fcfs" || name == "cfcfs") return DispatchPolicyKind::kCFcfs;
  if (name == "jbsq") return DispatchPolicyKind::kJbsq;
  return std::nullopt;
}

}  // namespace lauberhorn
