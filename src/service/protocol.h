// The dynbcast service wire protocol: versioned, newline-delimited text.
//
// `dynbcast serve` accepts experiment requests over a unix-domain socket
// (src/support/socket.h). A request is a ScenarioSpec plus the beam
// witness knobs `dynbcast sweep` exposes, flattened into `key=value`
// lines — dead simple on purpose: every frame is one readable line, a
// session can be replayed with `nc -U`, and versioning is the literal
// first token of the conversation.
//
// Request (client → server):
//
//   DYNBCAST/1 SUBMIT
//   dynamics=rooted-tree
//   sizes=4,8,16,32
//   seed=1
//   ...                      (one canonical key=value per line, any order)
//   <blank line>
//
// Response (server → client), streamed as execution progresses:
//
//   DYNBCAST/1 ACCEPTED job=<16-hex> tasks=<T>
//   PROGRESS done=<d> total=<T>       (repeated as checkpoints land)
//   TASK <position> <rounds> <0|1>    (one per task, in position order)
//   STATS tasks=<T> resumed=<R> cache-hits=<H> executed=<E>
//   DONE
//
// or `ERROR <message>` at any point, after which the server closes the
// connection. The client reconstructs full rows locally: row identity is
// a pure function of (request, position) — see src/engine/task_plan.h —
// so the wire only ever carries what the server actually computed.
//
// The CANONICAL form of a request (sorted keys, canonicalized spec
// strings, resolved adversary defaults) doubles as the job identity: its
// hash names the manifest, so resubmitting an equivalent request — even
// spelled differently — resumes or reuses the same job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/scenario.h"

namespace dynbcast {

inline constexpr char kServiceProtocol[] = "DYNBCAST/1";

/// One experiment request: the scenario, plus the beam-witness knobs
/// that apply when the request is a Theorem 3.1 sweep (broadcast over
/// unrestricted rooted trees — exactly when `dynbcast sweep` would run
/// its beam witness pass).
struct ServiceRequest {
  ScenarioSpec scenario;
  /// Beam witness search runs only for sizes n <= beamMaxN (matches the
  /// sweep subcommand's --beam-maxn; larger sizes report no witness).
  std::size_t beamMaxN = 32;
  /// Beam width for the witness search (--beam-width).
  std::size_t beamWidth = 256;
};

/// True when the request runs the sweep subcommand's beam-witness pass:
/// objective=broadcast over the default rooted-tree dynamics.
[[nodiscard]] bool requestWantsBeamWitnesses(const ServiceRequest& request);

/// The request as canonical `key=value` lines, sorted by key: dynamics
/// and adversary specs in registry-canonical form, adversary defaults
/// resolved, beam knobs present only when the request has a beam pass.
/// Throws std::invalid_argument on unknown dynamics/adversary names.
[[nodiscard]] std::vector<std::string> encodeRequest(
    const ServiceRequest& request);

/// Parses request lines (the part between SUBMIT and the blank line).
/// Purely structural — unknown keys and malformed values throw
/// std::invalid_argument (with a did-you-mean for near-miss keys), but
/// the scenario itself is NOT validated; callers run validateScenario()
/// for that, so spec errors surface with the registry's messages.
[[nodiscard]] ServiceRequest decodeRequest(
    const std::vector<std::string>& lines);

/// encodeRequest joined with single spaces: one line that round-trips
/// through decodeCanonicalRequest. No value in the grammar may contain a
/// space or newline, which is what makes this safe.
[[nodiscard]] std::string canonicalRequestString(
    const ServiceRequest& request);

/// Inverse of canonicalRequestString (used by workers to reconstruct
/// the request from a manifest header).
[[nodiscard]] ServiceRequest decodeCanonicalRequest(const std::string& text);

/// Job identity: 16 hex digits of the canonical request string's FNV-1a
/// hash. Names the manifest file; the manifest stores the full canonical
/// string so a (vanishingly unlikely) collision is detected, not acted
/// on.
[[nodiscard]] std::string canonicalJobId(const std::string& canonical);

/// canonicalJobId(canonicalRequestString(request)).
[[nodiscard]] std::string requestJobId(const ServiceRequest& request);

/// FNV-1a over bytes — the service's stable string hash (cache buckets,
/// job ids). Stability matters: these values land in on-disk filenames.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& text);

/// Fixed-width lowercase hex (16 digits) for fnv1a64 values.
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace dynbcast
