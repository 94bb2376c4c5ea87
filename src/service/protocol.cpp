#include "src/service/protocol.h"

#include <algorithm>
#include <stdexcept>

#include "src/dynamics/registry.h"
#include "src/engine/task_plan.h"
#include "src/support/format.h"
#include "src/support/options.h"
#include "src/support/spec.h"

namespace dynbcast {

namespace {

[[nodiscard]] std::vector<std::string> splitOn(const std::string& text,
                                               char delimiter) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == delimiter) {
      if (!current.empty()) parts.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

[[nodiscard]] std::uint64_t parseUInt(const std::string& key,
                                      const std::string& value) {
  return parseUnsigned(value, "request key '" + key + "'");
}

/// Spec strings never contain whitespace in canonical form, but raw user
/// input may ("freeze-path: depth=3" parses fine). The wire format is
/// space-delimited at the canonical-string level, so strip.
[[nodiscard]] std::string stripSpaces(std::string text) {
  text.erase(std::remove_if(text.begin(), text.end(),
                            [](char c) { return c == ' ' || c == '\t'; }),
             text.end());
  return text;
}

}  // namespace

bool requestWantsBeamWitnesses(const ServiceRequest& request) {
  return request.scenario.objective == Objective::kBroadcast &&
         DynamicsSpec::parse(request.scenario.dynamics).toString() ==
             "rooted-tree";
}

std::vector<std::string> encodeRequest(const ServiceRequest& request) {
  const ScenarioSpec& spec = request.scenario;
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsInfo& entry =
      DynamicsRegistry::instance().info(dynamics.name);

  // Keys are emitted in sorted order so the line list IS the canonical
  // form — no separate normalization pass.
  std::vector<std::string> lines;
  if (entry.mode == DynamicsMode::kGraphModel) {
    // Graph models take no adversaries; a non-empty list is a spec error
    // the server must see verbatim so validateScenario rejects it.
    if (!spec.adversaries.empty()) {
      lines.push_back("adversaries=" +
                      stripSpaces(join(spec.adversaries, ";")));
    }
  } else {
    lines.push_back("adversaries=" +
                    join(resolvedScenarioMemberSpecs(spec), ";"));
  }
  lines.push_back("backend=" + backendChoiceName(spec.backend));
  if (requestWantsBeamWitnesses(request)) {
    lines.push_back("beam-maxn=" + std::to_string(request.beamMaxN));
    lines.push_back("beam-width=" + std::to_string(request.beamWidth));
  }
  lines.push_back("cap=" + std::to_string(spec.roundCap));
  lines.push_back("dynamics=" + dynamics.toString());
  lines.push_back("objective=" + objectiveName(spec.objective));
  lines.push_back("seed=" + std::to_string(spec.masterSeed));
  lines.push_back("seeds=" + std::to_string(spec.seedsPerSize));
  std::string sizes;
  for (const std::size_t n : spec.sizes) {
    if (!sizes.empty()) sizes += ',';
    sizes += std::to_string(n);
  }
  lines.push_back("sizes=" + sizes);
  return lines;
}

ServiceRequest decodeRequest(const std::vector<std::string>& lines) {
  static const std::vector<std::string> kKnownKeys = {
      "adversaries", "backend", "beam-maxn", "beam-width", "cap",
      "dynamics",    "objective", "seed",    "seeds",      "sizes"};
  ServiceRequest request;
  bool sawSizes = false;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("malformed request line '" + line +
                                  "' (expected key=value)");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "adversaries") {
      request.scenario.adversaries = splitOn(value, ';');
    } else if (key == "backend") {
      request.scenario.backend = parseBackendChoice(value);
    } else if (key == "beam-maxn") {
      request.beamMaxN = parseUInt(key, value);
    } else if (key == "beam-width") {
      request.beamWidth = parseUInt(key, value);
    } else if (key == "cap") {
      request.scenario.roundCap = parseUInt(key, value);
    } else if (key == "dynamics") {
      request.scenario.dynamics = value;
    } else if (key == "objective") {
      request.scenario.objective = parseObjective(value);
    } else if (key == "seed") {
      request.scenario.masterSeed = parseUInt(key, value);
    } else if (key == "seeds") {
      request.scenario.seedsPerSize = parseUInt(key, value);
    } else if (key == "sizes") {
      request.scenario.sizes = parseSizeList(value);
      sawSizes = true;
    } else {
      throw std::invalid_argument(
          unknownNameMessage("request key", key, kKnownKeys, ""));
    }
  }
  if (!sawSizes) {
    throw std::invalid_argument("request is missing the 'sizes' key");
  }
  return request;
}

std::string canonicalRequestString(const ServiceRequest& request) {
  std::string canonical;
  for (const std::string& line : encodeRequest(request)) {
    if (!canonical.empty()) canonical += ' ';
    canonical += line;
  }
  return canonical;
}

ServiceRequest decodeCanonicalRequest(const std::string& text) {
  return decodeRequest(splitOn(text, ' '));
}

std::string canonicalJobId(const std::string& canonical) {
  return hex64(fnv1a64(canonical));
}

std::string requestJobId(const ServiceRequest& request) {
  return canonicalJobId(canonicalRequestString(request));
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return hex;
}

}  // namespace dynbcast
