#include "obs/trace.h"

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/file_io.h"
#include "common/thread_name.h"

namespace hmpt::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// JSON string escaping, matching common/json's writer (RFC 8259, ASCII
/// control escapes only) — the trace file is hand-written here because
/// building a Json tree for hundreds of thousands of events would double
/// the memory the recorder holds at stop time.
void escape_into(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string format_number(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

struct Event {
  char ph = 'i';
  std::uint64_t ts_us = 0;
  const char* cat = "";
  std::string name;
  std::string args;  ///< pre-rendered args body; "" = none
};

/// One thread's lane: its own lock (uncontended except against the
/// stop-time drain) and a small integer tid stable for the process life.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<Event> events;
  int tid = 0;
  std::string thread_name;  ///< captured at registration
};

void write_event(std::string& out, const Event& e, int pid, int tid) {
  out += "{\"name\":\"";
  escape_into(out, e.name);
  out += "\",\"cat\":\"";
  escape_into(out, e.cat);
  out += "\",\"ph\":\"";
  out += e.ph;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\",\"ts\":%" PRIu64 ",\"pid\":%d,\"tid\":%d",
                e.ts_us, pid, tid);
  out += buf;
  if (e.ph == 'i') out += ",\"s\":\"t\"";
  if (!e.args.empty()) {
    out += ",\"args\":{";
    out += e.args;
    out += '}';
  }
  out += '}';
}

void write_metadata(std::string& out, const char* name,
                    const std::string& value, int pid, int tid) {
  Event e;
  e.ph = 'M';
  e.cat = "__metadata";
  e.name = name;
  e.args = "\"name\":\"";
  escape_into(e.args, value);
  e.args += '"';
  write_event(out, e, pid, tid);
}

}  // namespace

TraceArg TraceArg::number(std::string key, double value) {
  TraceArg arg(std::move(key), format_number(value));
  arg.is_number = true;
  return arg;
}

TraceArg TraceArg::number(std::string key, std::uint64_t value) {
  TraceArg arg(std::move(key), std::to_string(value));
  arg.is_number = true;
  return arg;
}

struct TraceRecorder::Impl {
  std::mutex registry_mutex;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::int64_t> origin_ns{0};

  ThreadBuffer& buffer_for_this_thread() {
    thread_local ThreadBuffer* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(registry_mutex);
      auto buffer = std::make_unique<ThreadBuffer>();
      buffer->tid = static_cast<int>(buffers.size()) + 1;
      buffer->thread_name = current_thread_name();
      mine = buffer.get();
      buffers.push_back(std::move(buffer));
    }
    return *mine;
  }
};

TraceRecorder::TraceRecorder() : impl_(new Impl) {}

TraceRecorder& TraceRecorder::instance() {
  // Leaky: worker threads of long-lived pools may record while other
  // statics destruct, so the recorder must never die.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

std::uint64_t TraceRecorder::now_us() const {
  const std::int64_t origin = impl_->origin_ns.load(std::memory_order_relaxed);
  const std::int64_t now = Clock::now().time_since_epoch().count();
  const std::int64_t ns = now - origin;
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns) / 1000;
}

void TraceRecorder::start() {
  std::lock_guard<std::mutex> lock(impl_->registry_mutex);
  // Drop any straggler events from a previous session (a racing record
  // may land between a stop's disarm and its drain).
  for (auto& buffer : impl_->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  impl_->origin_ns.store(Clock::now().time_since_epoch().count(),
                         std::memory_order_relaxed);
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void TraceRecorder::record(char ph, const char* cat, const std::string& name,
                           std::string args_json) {
  if (!trace_enabled()) return;
  Event e;
  e.ph = ph;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args_json);
  e.ts_us = now_us();
  ThreadBuffer& buffer = impl_->buffer_for_this_thread();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(e));
}

std::string TraceRecorder::render_args(
    std::initializer_list<TraceArg> args) {
  std::string out;
  for (const TraceArg& a : args) {
    if (!out.empty()) out += ',';
    out += '"';
    escape_into(out, a.key);
    out += "\":";
    if (a.is_number) {
      out += a.value;
    } else {
      out += '"';
      escape_into(out, a.value);
      out += '"';
    }
  }
  return out;
}

std::string TraceRecorder::stop_and_render() {
  detail::g_trace_enabled.store(false, std::memory_order_release);

  // Drain every lane under its own lock; the registry lock holds the
  // buffer list stable while threads may still be registering.
  struct Lane {
    int tid;
    std::string thread_name;
    std::vector<Event> events;
  };
  std::vector<Lane> lanes;
  {
    std::lock_guard<std::mutex> lock(impl_->registry_mutex);
    lanes.reserve(impl_->buffers.size());
    for (auto& buffer : impl_->buffers) {
      Lane lane;
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      lane.tid = buffer->tid;
      lane.thread_name = buffer->thread_name;
      lane.events = std::move(buffer->events);
      buffer->events.clear();
      lanes.push_back(std::move(lane));
    }
  }

  const int pid = static_cast<int>(::getpid());
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const Event& e, int tid) {
    if (!first) out += ",\n";
    first = false;
    write_event(out, e, pid, tid);
  };

  write_metadata(out, "process_name", "hmpt", pid, 0);
  first = false;
  for (const Lane& lane : lanes) {
    if (lane.events.empty()) continue;
    if (!lane.thread_name.empty()) {
      if (!first) out += ",\n";
      first = false;
      write_metadata(out, "thread_name", lane.thread_name, pid, lane.tid);
    }
    // Per-lane events are already in timestamp order (one writer, a
    // monotonic clock). Track the B/E stack so a span still open at stop
    // time (disarmed mid-span: its "E" was dropped) is closed
    // synthetically and the stream stays balanced.
    std::size_t open = 0;
    std::uint64_t last_ts = 0;
    for (const Event& e : lane.events) {
      if (e.ph == 'E' && open == 0) continue;  // orphan close: drop
      if (e.ph == 'B') ++open;
      if (e.ph == 'E') --open;
      last_ts = e.ts_us;
      emit(e, lane.tid);
    }
    for (; open > 0; --open) {
      Event close;
      close.ph = 'E';
      close.cat = "trace";
      close.name = "unclosed";
      close.ts_us = last_ts;
      emit(close, lane.tid);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void TraceRecorder::stop_and_write(const std::string& path) {
  const std::string document = stop_and_render();
  write_file(path, [&](std::ostream& os) { os << document; });
}

TraceSpan::TraceSpan(const char* cat, std::string name)
    : TraceSpan(cat, std::move(name), {}) {}

TraceSpan::TraceSpan(const char* cat, std::string name,
                     std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  armed_ = true;
  cat_ = cat;
  name_ = std::move(name);
  TraceRecorder::instance().record('B', cat_, name_,
                                   TraceRecorder::render_args(args));
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  // The E carries the args accumulated while the span ran; viewers merge
  // them with the B's. Recorded even if tracing was disarmed mid-span —
  // the renderer balances either way.
  TraceRecorder::instance().record('E', cat_, name_, std::move(args_));
}

void TraceSpan::append(const TraceArg& a) {
  if (!armed_) return;
  std::string rendered = TraceRecorder::render_args({a});
  if (!args_.empty()) args_ += ',';
  args_ += rendered;
}

void TraceSpan::arg(const std::string& key, const std::string& value) {
  if (armed_) append(TraceArg(key, value));
}

void TraceSpan::arg(const std::string& key, const char* value) {
  if (armed_) append(TraceArg(key, value));
}

void TraceSpan::arg_number(const std::string& key, double value) {
  if (armed_) append(TraceArg::number(key, value));
}

void TraceSpan::arg_number(const std::string& key, std::uint64_t value) {
  if (armed_) append(TraceArg::number(key, value));
}

void trace_instant(const char* cat, const std::string& name,
                   std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  TraceRecorder::instance().record('i', cat, name,
                                   TraceRecorder::render_args(args));
}

void trace_counter(const char* cat, const std::string& name, double value) {
  if (!trace_enabled()) return;
  TraceRecorder::instance().record(
      'C', cat, name,
      TraceRecorder::render_args({TraceArg::number(name, value)}));
}

}  // namespace hmpt::obs
