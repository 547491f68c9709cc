// Run manifests: the "what produced this file" record written next to
// every artifact a figure binary emits.
//
// The manifest is the one deliberately NON-deterministic observability
// artifact: it carries wall-clock timing, host info and the source
// revision — everything needed to reproduce or triage a run, none of
// which may leak into metrics/trace output (those must stay byte-identical
// across machines and --jobs counts).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace cdnsim::obs {

struct RunManifest {
  std::string binary;              // argv[0]
  std::vector<std::string> args;   // argv[1..]
  std::uint64_t seed = 0;          // master seed, 0 if not applicable
  std::string config_digest;       // fnv1a64 hex of the run configuration
  std::string git_describe;        // source revision, "unknown" if no git
  std::string created_utc;         // ISO-8601 UTC wall-clock timestamp
  std::string hostname;
  std::string platform;            // e.g. "linux"
  unsigned hardware_threads = 0;
  int jobs = 0;                    // --jobs actually used
  std::string lanes;               // catalog --lanes selection + resolved
                                   // object-lane count ("auto:4");
                                   // empty if the binary has no lanes
  double wall_s = 0;               // total wall-clock run time

  void write_json(std::ostream& out) const;
};

/// Fills binary/args/git_describe/created_utc/hostname/platform/
/// hardware_threads from the environment. Seed, digest, jobs and wall_s
/// stay for the caller.
RunManifest capture_manifest(int argc, const char* const* argv);

/// FNV-1a 64-bit over a string — cheap stable digest for configs.
std::uint64_t fnv1a64(const std::string& data);
std::string fnv1a64_hex(const std::string& data);

/// Canonical sibling path for an artifact's manifest:
/// "out/m.jsonl" -> "out/m.jsonl.manifest.json".
std::string manifest_path_for(const std::string& artifact_path);

/// Writes `manifest` next to `artifact_path` (see manifest_path_for).
void write_manifest_for(const std::string& artifact_path,
                        const RunManifest& manifest);

}  // namespace cdnsim::obs
