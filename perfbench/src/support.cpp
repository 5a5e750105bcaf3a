#include "support.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/error.h"

namespace fs = std::filesystem;

namespace perfbench {

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double process_cpu_s() {
  timespec now{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) != 0)
    hmpt::raise("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) / 1e9;
}

void flush_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) hmpt::raise("cannot open " + dir);
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) hmpt::raise("syncfs failed on " + dir);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  hmpt::raise("no VmHWM line in /proc/self/status");
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) hmpt::raise("cannot read " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

}  // namespace perfbench
