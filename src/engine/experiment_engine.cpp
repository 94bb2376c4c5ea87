#include "src/engine/experiment_engine.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "src/support/spec.h"

namespace dynbcast {

BatchPolicy parseBatchPolicy(const std::string& text) {
  if (text == "auto") return {BatchPolicy::Mode::kAuto, 0};
  if (text == "off") return {BatchPolicy::Mode::kOff, 0};
  const bool numeric =
      !text.empty() &&
      std::all_of(text.begin(), text.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      });
  if (numeric) {
    constexpr std::size_t kMaxWidth = 4096;
    std::size_t width = 0;
    for (const char c : text) {
      width = width * 10 + static_cast<std::size_t>(c - '0');
      if (width > kMaxWidth) break;
    }
    if (width >= 1 && width <= kMaxWidth) {
      return {BatchPolicy::Mode::kFixed, width};
    }
    throw std::invalid_argument("batch: lane width must be between 1 and " +
                                std::to_string(kMaxWidth) + " (got '" + text +
                                "')");
  }
  std::string message = "unknown batch policy '" + text + "'";
  const std::string suggestion = closestMatch(text, {"auto", "off"});
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  message += " (expected auto, off, or a lane width like 8)";
  throw std::invalid_argument(message);
}

std::string batchPolicyName(const BatchPolicy& policy) {
  switch (policy.mode) {
    case BatchPolicy::Mode::kOff:
      return "off";
    case BatchPolicy::Mode::kFixed:
      return std::to_string(policy.width);
    case BatchPolicy::Mode::kAuto:
      break;
  }
  return "auto";
}

ExperimentEngine::ExperimentEngine(EngineConfig config) : pool_(config.jobs) {}

}  // namespace dynbcast
