// file_io.h — checked whole-file writers.
//
// Every artefact, plan, profile and trace the tools write goes through
// one of these two, so a full disk or a failed close is an error naming
// the path, never a silently truncated file reported as written.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace hmpt {

/// Create `path` and stream `write`'s bytes into it. Throws hmpt::Error
/// naming the path when the file cannot be opened, or when any byte
/// fails to reach it (checked after the last byte and again at close),
/// so a full disk never passes for a finished artefact. Writes in place,
/// so `path` may be a device or a pipe (e.g. /dev/stdout).
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write);

/// write_file() to `path + ".tmp." + pid`, then rename it over `path`, so
/// readers see the old bytes or the new ones, never a torn file. On any
/// failure the temporary is removed, `path` is left as it was, and the
/// error is rethrown.
void publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

}  // namespace hmpt
