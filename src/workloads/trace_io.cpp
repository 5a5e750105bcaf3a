#include "workloads/trace_io.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/file_io.h"

namespace hmpt::workloads {

namespace {

const char* pattern_name(sim::AccessPattern pattern) {
  switch (pattern) {
    case sim::AccessPattern::Sequential:
      return "sequential";
    case sim::AccessPattern::Random:
      return "random";
    case sim::AccessPattern::PointerChase:
      return "chase";
  }
  return "?";
}

sim::AccessPattern pattern_from(const std::string& name, int line_no) {
  if (name == "sequential") return sim::AccessPattern::Sequential;
  if (name == "random") return sim::AccessPattern::Random;
  if (name == "chase") return sim::AccessPattern::PointerChase;
  raise("unknown access pattern '" + name + "' (line " +
        std::to_string(line_no) + ")");
}

/// Labels may contain spaces in principle; the format forbids them, so
/// replace on write and reject on read.
std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out)
    if (c == ' ' || c == '\t' || c == '\n') c = '_';
  return out.empty() ? "_" : out;
}

}  // namespace

void write_workload(std::ostream& os, const Workload& workload) {
  // 17 significant digits: doubles survive the text round trip exactly.
  const auto old_precision = os.precision(17);
  os << "workload " << sanitize_label(workload.name()) << '\n';
  const auto groups = workload.groups();
  for (std::size_t g = 0; g < groups.size(); ++g)
    os << "group " << g << ' ' << sanitize_label(groups[g].label) << ' '
       << groups[g].bytes << '\n';
  for (const auto& phase : workload.trace().phases) {
    os << "phase " << sanitize_label(phase.name) << ' ' << phase.flops
       << ' ' << (phase.vectorized ? 1 : 0) << '\n';
    for (const auto& s : phase.streams)
      os << "stream " << s.group << ' ' << s.bytes_read << ' '
         << s.bytes_written << ' ' << pattern_name(s.pattern) << ' '
         << (s.nontemporal_writes ? 1 : 0) << ' ' << s.working_set_bytes
         << '\n';
  }
  os.precision(old_precision);
}

std::string serialize_workload(const Workload& workload) {
  std::ostringstream os;
  write_workload(os, workload);
  return os.str();
}

RecordedWorkload parse_workload(std::istream& is) {
  std::string name = "recorded";
  std::vector<GroupInfo> groups;
  sim::PhaseTrace trace;
  bool have_phase = false;

  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive)) continue;
    const std::string where = " (line " + std::to_string(line_no) + ")";

    if (directive == "workload") {
      HMPT_REQUIRE(static_cast<bool>(ls >> name),
                   "workload needs a name" + where);
    } else if (directive == "group") {
      std::size_t id;
      std::string label;
      double bytes;
      HMPT_REQUIRE(static_cast<bool>(ls >> id >> label >> bytes),
                   "group needs <id> <label> <bytes>" + where);
      HMPT_REQUIRE(id == groups.size(),
                   "group ids must be dense and in order" + where);
      HMPT_REQUIRE(bytes >= 0.0, "negative group bytes" + where);
      groups.push_back({label, bytes});
    } else if (directive == "phase") {
      sim::KernelPhase phase;
      int vectorized;
      HMPT_REQUIRE(static_cast<bool>(ls >> phase.name >> phase.flops >>
                                     vectorized),
                   "phase needs <name> <flops> <vectorized>" + where);
      phase.vectorized = vectorized != 0;
      trace.phases.push_back(std::move(phase));
      have_phase = true;
    } else if (directive == "stream") {
      HMPT_REQUIRE(have_phase, "stream before any phase" + where);
      sim::StreamAccess s;
      std::string pattern;
      int nt;
      HMPT_REQUIRE(static_cast<bool>(ls >> s.group >> s.bytes_read >>
                                     s.bytes_written >> pattern >> nt >>
                                     s.working_set_bytes),
                   "stream needs 6 fields" + where);
      HMPT_REQUIRE(s.group >= 0 &&
                       s.group < static_cast<int>(groups.size()),
                   "stream group out of range" + where);
      s.pattern = pattern_from(pattern, line_no);
      s.nontemporal_writes = nt != 0;
      trace.phases.back().streams.push_back(s);
    } else {
      raise("unknown profile directive '" + directive + "'" + where);
    }
  }
  HMPT_REQUIRE(!groups.empty(), "profile declares no groups");
  return RecordedWorkload(name, std::move(groups), std::move(trace));
}

RecordedWorkload parse_workload(const std::string& text) {
  std::istringstream is(text);
  return parse_workload(is);
}

void save_workload(const std::string& path, const Workload& workload) {
  // Checked to the last byte and the close: a full disk throws.
  write_file(path, [&](std::ostream& os) { write_workload(os, workload); });
}

RecordedWorkload load_workload(const std::string& path) {
  std::ifstream is(path);
  HMPT_REQUIRE(is.good(), "cannot open profile: " + path);
  return parse_workload(is);
}

}  // namespace hmpt::workloads
