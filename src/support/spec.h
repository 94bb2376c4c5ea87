// The shared `name:key=value,...` spec grammar and the one registry
// built on it.
//
// Two registries speak this language — AdversaryRegistry (who plays the
// game) and DynamicsRegistry (which graphs the game is played on) — and
// both are SpecRegistry below: parse/print round-trip with a sorted-key
// canonical form, typed parameter access with friendly conversion errors,
// edit-distance "did you mean" suggestions for typos, and one validate()
// that owns every name, key and value check.
//
// Grammar (canonical form printed by formatSpec):
//
//   spec   := name [":" param ("," param)*]
//   param  := key "=" value
//   name   := [A-Za-z0-9._-]+          e.g. "edge-markovian"
//
// Every error message starts with the axis `kind` ("adversary",
// "dynamics"), so a typo in an experiment script names the axis it broke.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/support/format.h"

namespace dynbcast {

/// Typed view of one spec's key=value bag. Values are stored as strings
/// and converted on access; conversion failures throw
/// std::invalid_argument naming the offending key and value — prefixed
/// with the axis `kind` ("adversary", "dynamics") when the bag came out
/// of parseSpec, so a bad value says which spec axis it broke.
class SpecParams {
 public:
  SpecParams() = default;
  explicit SpecParams(std::map<std::string, std::string> values,
                      std::string kind = "")
      : values_(std::move(values)), kind_(std::move(kind)) {}

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  [[nodiscard]] std::uint64_t getUInt(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;

  /// Sorted key → value map (std::map keeps printing canonical).
  [[nodiscard]] const std::map<std::string, std::string>& values()
      const noexcept {
    return values_;
  }

 private:
  /// "<kind> parameter 'key' expects ..." error prefix; "parameter" when
  /// no kind was attached.
  [[nodiscard]] std::string errorLabel() const;

  std::map<std::string, std::string> values_;
  std::string kind_;
};

/// A parsed spec string: base name + parameter bag. AdversarySpec and
/// DynamicsSpec are thin wrappers that pin the error-message kind.
struct ParsedSpec {
  std::string name;
  SpecParams params;

  /// Canonical printing (formatSpec); a parse/print fixed point.
  [[nodiscard]] std::string toString() const;
};

/// Parses "name:key=value,key=value". Throws std::invalid_argument on
/// malformed input (empty name, missing '=', duplicate key, bad
/// characters); messages read "<kind> spec '<text>': ...". Surrounding
/// whitespace of tokens is ignored.
[[nodiscard]] ParsedSpec parseSpec(const std::string& text,
                                   const std::string& kind);

/// Canonical printing: name, then ":" and the parameters sorted by key.
/// parseSpec(formatSpec(s)) reproduces s — printing is a fixed point.
[[nodiscard]] std::string formatSpec(const std::string& name,
                                     const SpecParams& params);

/// True when `token` is a non-empty string over the grammar's name/key
/// charset [A-Za-z0-9._-].
[[nodiscard]] bool isValidSpecToken(const std::string& token);

/// "did you mean" helper shared by the registries and the scenario layer:
/// the candidate closest to `word` in edit distance, or empty when
/// nothing is within distance 3.
[[nodiscard]] std::string closestMatch(const std::string& word,
                                       const std::vector<std::string>& pool);

/// One declared parameter of a registry entry (for validation, error
/// suggestions, and `dynbcast list`).
struct SpecParamDoc {
  std::string key;
  std::string defaultValue;
  std::string description;
};

/// An entry's parameter-value check at process count n (ranges,
/// enumerations, n-dependent limits); throws std::invalid_argument.
using SpecValueCheck =
    std::function<void(const SpecParams& params, std::size_t n)>;

/// `text` as an unsigned integer: it must be all digits (no sign, no
/// blanks) and fit in 64 bits. Throws std::invalid_argument "<what>
/// expects an unsigned integer, got '<text>'" otherwise — the one
/// integer rule of spec values, CLI flags, size lists and request keys.
[[nodiscard]] std::uint64_t parseUnsigned(const std::string& text,
                                          const std::string& what);

/// "unknown <noun> '<name>'; did you mean '<x>'? (<hint>)" — the one
/// unknown-name message of the registries and every other vocabulary
/// (objectives, backends, request keys, subcommands). The suggestion is
/// closestMatch(name, pool); an empty hint drops the parenthetical.
[[nodiscard]] std::string unknownNameMessage(
    const std::string& noun, const std::string& name,
    const std::vector<std::string>& pool, const std::string& hint);

/// Name → entry registry for one spec axis. `Info` carries `name`,
/// `params` (the only accepted keys), `validateParams` (a SpecValueCheck,
/// null when there is nothing to check) and `factory` (a std::function
/// building a fresh product for (n, seed, params)). validate() is the
/// only place a spec is checked; factories assume validated parameters
/// and check nothing. The process-wide instance() comes with every
/// built-in entry; extensions may add() their own before fanning work
/// out (read-only thereafter — make() from worker threads is safe as
/// long as no add() races it).
template <typename Info>
class SpecRegistry {
 public:
  /// An empty registry with this axis's error labels; specialized per
  /// Info next to the axis's built-ins.
  SpecRegistry();

  /// The process-wide registry, filled once by the axis's registerBuiltins.
  [[nodiscard]] static SpecRegistry& instance() {
    static SpecRegistry* registry = [] {
      auto* r = new SpecRegistry();
      registerBuiltins(*r);
      return r;
    }();
    return *registry;
  }

  /// Registers an entry. Throws std::invalid_argument if the name is
  /// taken, not in the grammar's charset, or the entry breaks the axis's
  /// checkEntry rule.
  void add(Info info) {
    if (!isValidSpecToken(info.name)) {
      throw std::invalid_argument(kind_ + " registration '" + info.name +
                                  "': name must be non-empty [A-Za-z0-9._-]");
    }
    checkEntry(info);
    const std::string name = info.name;
    if (!entries_.emplace(name, std::move(info)).second) {
      throw std::invalid_argument(kind_ + " registration '" + name +
                                  "': name already registered");
    }
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.count(name) != 0;
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    for (const auto& entry : entries_) out.push_back(entry.first);
    return out;
  }

  /// Metadata lookup. Throws std::invalid_argument with a nearest-match
  /// suggestion when the name is unknown.
  [[nodiscard]] const Info& info(const std::string& name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::invalid_argument(
          unknownNameMessage(noun_, name, names(), listHint_));
    }
    return it->second;
  }

  /// Checks the spec is buildable at process count n: known name, only
  /// declared keys, then in-range values (the entry's validateParams).
  /// Throws std::invalid_argument (with suggestions) otherwise. Cheap —
  /// callers composing sweeps validate every size eagerly (the `sizes`
  /// form checks name and keys once), so a bad spec fails at composition
  /// time, not inside a worker thread.
  void validate(const ParsedSpec& spec, std::size_t n) const {
    validate(spec, std::span<const std::size_t>(&n, 1));
  }
  void validate(const ParsedSpec& spec,
                std::span<const std::size_t> sizes) const {
    const Info& entry = info(spec.name);
    for (const auto& [key, value] : spec.params.values()) {
      const auto declared = [&key](const auto& doc) { return doc.key == key; };
      if (std::any_of(entry.params.begin(), entry.params.end(), declared)) {
        continue;
      }
      std::vector<std::string> known;
      for (const SpecParamDoc& doc : entry.params) known.push_back(doc.key);
      throw std::invalid_argument(
          kind_ + " '" + spec.name + "': " +
          unknownNameMessage("parameter", key, known,
                             known.empty()
                                 ? "'" + spec.name + "' takes no parameters"
                                 : "known parameters: " + join(known, ", ")));
    }
    if (!entry.validateParams) return;
    for (const std::size_t n : sizes) entry.validateParams(spec.params, n);
  }

  /// Validates, then constructs through the entry's factory.
  [[nodiscard]] auto make(const ParsedSpec& spec, std::size_t n,
                          std::uint64_t seed) const {
    validate(spec, n);
    const Info& entry = info(spec.name);
    checkMakeable(entry);
    return entry.factory(n, seed, spec.params);
  }

  /// Convenience: parse + make.
  [[nodiscard]] auto make(const std::string& spec, std::size_t n,
                          std::uint64_t seed) const {
    return make(parseSpec(spec, kind_), n, seed);
  }

 private:
  SpecRegistry(std::string kind, std::string noun, std::string listHint)
      : kind_(std::move(kind)),
        noun_(std::move(noun)),
        listHint_(std::move(listHint)) {}

  /// add()'s per-axis rule for an entry; by default it needs a factory.
  void checkEntry(const Info& entry) const {
    if (!entry.factory) {
      throw std::invalid_argument(kind_ + " registration '" + entry.name +
                                  "': null factory");
    }
  }

  /// make()'s per-axis precondition on an entry; none by default.
  void checkMakeable(const Info& /*entry*/) const {}

  std::string kind_;      ///< error prefix: "adversary", "dynamics"
  std::string noun_;      ///< "unknown <noun> 'x'"
  std::string listHint_;  ///< closes the unknown-name message
  std::map<std::string, Info> entries_;
};

}  // namespace dynbcast
