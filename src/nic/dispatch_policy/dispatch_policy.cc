#include "src/nic/dispatch_policy/dispatch_policy.h"

#include "src/stats/metrics.h"

namespace lauberhorn {

void ExportDispatchPolicyStats(MetricsRegistry& metrics,
                               const std::string& prefix,
                               DispatchPolicyKind kind,
                               const DispatchPolicyStats& stats) {
  const std::string base = prefix + "dispatch/" + ToString(kind) + "/";
  for (const DispatchPolicyStatsField& field : kDispatchPolicyStatsFields) {
    metrics.SetCounter(base + field.name, stats.*field.value);
  }
}

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
