// trace_io.h — (de)serialisation of recorded profiles.
//
// The paper's workflow is two-run: a profiling run produces the allocation
// inventory and access statistics, the driver script computes a plan, and
// the next run applies it. This module persists the intermediate artefact
// — a workload's groups + PhaseTrace — in a line-oriented text format so
// the two runs can be separate processes (or separate machines).
//
// Format (one directive per line, '#' comments):
//   workload <name>
//   group <id> <label> <bytes>
//   phase <name> <flops> <vectorized:0|1>
//   stream <group> <bytes_read> <bytes_written> <pattern> <nt:0|1> <ws>
// Streams attach to the most recent phase; patterns are
// sequential|random|chase.
#pragma once

#include <iosfwd>
#include <string>

#include "workloads/recorded.h"

namespace hmpt::workloads {

/// Serialise a workload (its groups and trace) to the profile format.
std::string serialize_workload(const Workload& workload);
void write_workload(std::ostream& os, const Workload& workload);

/// Parse a profile back into an analysable workload. Bad input throws
/// hmpt::Error whose text is the message alone ("stream needs 6 fields
/// (line 4)", "cannot open profile: <path>"), with no source location, so
/// a failed scenario's recorded error does not move with this file's
/// lines.
RecordedWorkload parse_workload(const std::string& text);
RecordedWorkload parse_workload(std::istream& is);

/// Convenience: file round trip.
void save_workload(const std::string& path, const Workload& workload);
RecordedWorkload load_workload(const std::string& path);

}  // namespace hmpt::workloads
