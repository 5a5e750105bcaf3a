#include "common/file_io.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.h"

namespace hmpt {

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) raise("cannot write " + path);
  write(os);
  os.flush();
  if (!os.good()) raise("short write to " + path);
  os.close();
  if (os.fail()) raise("short write to " + path + " (at close)");
}

void publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  try {
    write_file(tmp, write);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) raise("cannot publish " + path + ": " + ec.message());
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

}  // namespace hmpt
