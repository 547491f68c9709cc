#include "obs/manifest.hpp"

#include <unistd.h>

#include <array>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <ostream>
#include <thread>

#include "obs/metrics.hpp"  // json_escape
#include "util/csv.hpp"     // util::format_double
#include "util/error.hpp"

namespace cdnsim::obs {
namespace {

std::string run_command_line(const char* cmd) {
  // popen is fine here: manifests are written once per run, off any hot
  // path, and a failure degrades to "unknown" rather than erroring.
  std::string out;
  FILE* pipe = ::popen(cmd, "r");
  if (pipe == nullptr) return out;
  std::array<char, 256> buf;
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    out += buf.data();
  }
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string fnv1a64_hex(const std::string& data) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(data)));
  return buf;
}

RunManifest capture_manifest(int argc, const char* const* argv) {
  RunManifest m;
  if (argc > 0) m.binary = argv[0];
  for (int i = 1; i < argc; ++i) m.args.emplace_back(argv[i]);
  m.git_describe =
      run_command_line("git describe --always --dirty 2>/dev/null");
  if (m.git_describe.empty()) m.git_describe = "unknown";
  m.created_utc = utc_now_iso8601();
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    m.hostname = host;
  } else {
    m.hostname = "unknown";
  }
#if defined(__linux__)
  m.platform = "linux";
#elif defined(__APPLE__)
  m.platform = "darwin";
#else
  m.platform = "other";
#endif
  m.hardware_threads = std::thread::hardware_concurrency();
  return m;
}

void RunManifest::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"binary\": \"" << json_escape(binary) << "\",\n";
  out << "  \"args\": [";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out << ", ";
    out << '"' << json_escape(args[i]) << '"';
  }
  out << "],\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"config_digest\": \"" << json_escape(config_digest) << "\",\n";
  out << "  \"git_describe\": \"" << json_escape(git_describe) << "\",\n";
  out << "  \"created_utc\": \"" << json_escape(created_utc) << "\",\n";
  out << "  \"hostname\": \"" << json_escape(hostname) << "\",\n";
  out << "  \"platform\": \"" << json_escape(platform) << "\",\n";
  out << "  \"hardware_threads\": " << hardware_threads << ",\n";
  out << "  \"jobs\": " << jobs << ",\n";
  out << "  \"lanes\": \"" << json_escape(lanes) << "\",\n";
  out << "  \"wall_s\": " << util::format_double(wall_s) << "\n";
  out << "}\n";
}

std::string manifest_path_for(const std::string& artifact_path) {
  return artifact_path + ".manifest.json";
}

void write_manifest_for(const std::string& artifact_path,
                        const RunManifest& manifest) {
  const std::string path = manifest_path_for(artifact_path);
  std::ofstream out(path);
  if (!out) throw Error("cannot write manifest: " + path);
  manifest.write_json(out);
}

}  // namespace cdnsim::obs
