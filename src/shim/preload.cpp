// preload.cpp — the LD_PRELOAD interposition layer (libhmpt_preload.so).
//
// Non-intrusive interception of unmodified binaries, as the paper's SHIM
// library does: override malloc/free/calloc/realloc/posix_memalign via
// dlsym(RTLD_NEXT), attribute each call to its call site (the caller's
// return address), and dump a per-site profile at process exit to
// $HMPT_PROFILE_OUT. Usage:
//
//   HMPT_PROFILE_OUT=profile.txt LD_PRELOAD=$BUILD/libhmpt_preload.so ./app
//
// Keep this translation unit free of anything that may allocate during
// early process startup; all logic lives in preload_core.{h,cpp}.
#include <dlfcn.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "shim/preload_core.h"

namespace {

using MallocFn = void* (*)(std::size_t);
using FreeFn = void (*)(void*);
using CallocFn = void* (*)(std::size_t, std::size_t);
using ReallocFn = void* (*)(void*, std::size_t);
using MemalignFn = int (*)(void**, std::size_t, std::size_t);
using UsableSizeFn = std::size_t (*)(void*);

MallocFn real_malloc = nullptr;
FreeFn real_free = nullptr;
CallocFn real_calloc = nullptr;
ReallocFn real_realloc = nullptr;
MemalignFn real_posix_memalign = nullptr;
UsableSizeFn real_usable_size = nullptr;

// dlsym() may itself call calloc before the real pointers are resolved;
// serve those bootstrap allocations from a static arena.
constexpr std::size_t kBootstrapBytes = 1 << 16;
alignas(16) unsigned char bootstrap_pool[kBootstrapBytes];
std::size_t bootstrap_used = 0;

bool in_bootstrap(const void* ptr) {
  const auto* p = static_cast<const unsigned char*>(ptr);
  return p >= bootstrap_pool && p < bootstrap_pool + kBootstrapBytes;
}

void* bootstrap_alloc(std::size_t size) {
  const std::size_t aligned = (size + 15u) & ~std::size_t{15};
  if (bootstrap_used + aligned > kBootstrapBytes) return nullptr;
  void* ptr = bootstrap_pool + bootstrap_used;
  bootstrap_used += aligned;
  return ptr;
}

bool resolving = false;

void resolve_real_functions() {
  if (real_malloc != nullptr || resolving) return;
  resolving = true;
  real_malloc = reinterpret_cast<MallocFn>(dlsym(RTLD_NEXT, "malloc"));
  real_free = reinterpret_cast<FreeFn>(dlsym(RTLD_NEXT, "free"));
  real_calloc = reinterpret_cast<CallocFn>(dlsym(RTLD_NEXT, "calloc"));
  real_realloc = reinterpret_cast<ReallocFn>(dlsym(RTLD_NEXT, "realloc"));
  real_posix_memalign =
      reinterpret_cast<MemalignFn>(dlsym(RTLD_NEXT, "posix_memalign"));
  real_usable_size = reinterpret_cast<UsableSizeFn>(
      dlsym(RTLD_NEXT, "malloc_usable_size"));
  resolving = false;
}

hmpt::shim::PreloadConfig& config() {
  static hmpt::shim::PreloadConfig cfg = hmpt::shim::read_preload_config();
  return cfg;
}

// Re-entrancy guard: the table itself never allocates, but dlsym and the
// dump path may; drop tracking while inside our own machinery.
thread_local bool inside_hook = false;

struct DumpAtExit {
  ~DumpAtExit() {
    if (config().enabled) hmpt::shim::preload_dump(config());
  }
};
DumpAtExit dump_at_exit;

void track_alloc(void* caller, std::size_t size) {
  if (!config().enabled || size < config().min_size) return;
  hmpt::shim::preload_table().on_alloc(
      reinterpret_cast<std::uintptr_t>(caller), size);
}

void track_free(void* caller, void* ptr) {
  if (!config().enabled || ptr == nullptr || in_bootstrap(ptr)) return;
  const std::size_t size =
      real_usable_size != nullptr ? real_usable_size(ptr) : 0;
  if (size < config().min_size) return;  // mirror the allocation filter
  hmpt::shim::preload_table().on_free(
      reinterpret_cast<std::uintptr_t>(caller), size);
}

}  // namespace

extern "C" {

void* malloc(std::size_t size) {
  resolve_real_functions();
  if (real_malloc == nullptr) return bootstrap_alloc(size);
  void* ptr = real_malloc(size);
  if (!inside_hook && ptr != nullptr) {
    inside_hook = true;
    track_alloc(__builtin_return_address(0), size);
    inside_hook = false;
  }
  return ptr;
}

void free(void* ptr) {
  if (ptr == nullptr || in_bootstrap(ptr)) return;
  resolve_real_functions();
  if (!inside_hook) {
    inside_hook = true;
    track_free(__builtin_return_address(0), ptr);
    inside_hook = false;
  }
  if (real_free != nullptr) real_free(ptr);
}

void* calloc(std::size_t count, std::size_t size) {
  if (real_calloc == nullptr && resolving) {
    // dlsym bootstrap path: hand out zeroed static memory.
    void* ptr = bootstrap_alloc(count * size);
    if (ptr != nullptr) std::memset(ptr, 0, count * size);
    return ptr;
  }
  resolve_real_functions();
  if (real_calloc == nullptr) {
    void* ptr = bootstrap_alloc(count * size);
    if (ptr != nullptr) std::memset(ptr, 0, count * size);
    return ptr;
  }
  void* ptr = real_calloc(count, size);
  if (!inside_hook && ptr != nullptr) {
    inside_hook = true;
    track_alloc(__builtin_return_address(0), count * size);
    inside_hook = false;
  }
  return ptr;
}

void* realloc(void* ptr, std::size_t size) {
  resolve_real_functions();
  if (ptr != nullptr && in_bootstrap(ptr)) {
    // Bootstrap blocks cannot be resized in place; copy out.
    void* fresh = real_malloc != nullptr ? real_malloc(size)
                                         : bootstrap_alloc(size);
    return fresh;
  }
  if (real_realloc == nullptr) return nullptr;
  void* fresh = real_realloc(ptr, size);
  if (!inside_hook && fresh != nullptr) {
    inside_hook = true;
    track_alloc(__builtin_return_address(0), size);
    inside_hook = false;
  }
  return fresh;
}

int posix_memalign(void** out, std::size_t alignment, std::size_t size) {
  resolve_real_functions();
  if (real_posix_memalign == nullptr) return 12;  // ENOMEM
  const int rc = real_posix_memalign(out, alignment, size);
  if (!inside_hook && rc == 0) {
    inside_hook = true;
    track_alloc(__builtin_return_address(0), size);
    inside_hook = false;
  }
  return rc;
}

}  // extern "C"
