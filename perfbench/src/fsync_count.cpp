// fsync_count.cpp — counts and times the flushes the library issues, from
// outside it.
//
// The benchmark binary links libhmpt statically, so these definitions
// take precedence over the C library's for every call the library makes.
// Each forwards to the real function found with dlsym(RTLD_NEXT), so the
// shipped flush policy runs unchanged; only the count and the time spent
// in the calls are added.
#include <dlfcn.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>

#include "support.h"

namespace {

std::atomic<std::uint64_t> g_flushes{0};
std::atomic<std::uint64_t> g_flush_ns{0};

using FlushFn = int (*)(int);

FlushFn real(const char* name) {
  return reinterpret_cast<FlushFn>(::dlsym(RTLD_NEXT, name));
}

int forward(FlushFn fn, int fd) {
  g_flushes.fetch_add(1, std::memory_order_relaxed);
  if (fn == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  const auto start = std::chrono::steady_clock::now();
  const int rc = fn(fd);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);
  g_flush_ns.fetch_add(static_cast<std::uint64_t>(ns.count()),
                       std::memory_order_relaxed);
  return rc;
}

}  // namespace

extern "C" int fsync(int fd) {
  static const FlushFn fn = real("fsync");
  return forward(fn, fd);
}

extern "C" int fdatasync(int fd) {
  static const FlushFn fn = real("fdatasync");
  return forward(fn, fd);
}

namespace perfbench {

std::uint64_t fsync_calls() {
  return g_flushes.load(std::memory_order_relaxed);
}

double fsync_wait_ms() {
  return static_cast<double>(g_flush_ns.load(std::memory_order_relaxed)) /
         1e6;
}

}  // namespace perfbench
