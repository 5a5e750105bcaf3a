// json.h — a minimal JSON value with parser and writer.
//
// The campaign engine persists machine-readable artefacts (per-scenario
// outcomes, campaign summaries, bench trajectories) and must read them
// back for --resume, so both directions live here. The value model is the
// usual tagged union (null/bool/number/string/array/object); objects keep
// insertion order so written files are stable byte-for-byte — resumed
// campaigns must reproduce identical artefacts. No external dependency;
// the dialect is plain RFC 8259 minus \uXXXX escapes beyond ASCII needs,
// and an object may not repeat a key.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace hmpt {

class Json;
using JsonArray = std::vector<Json>;

namespace detail {
class JsonParser;
}

/// Order-preserving string->Json map (insertion order, like the writer
/// emits and the parser reads — deterministic round trips).
class JsonObject {
 public:
  Json& operator[](const std::string& key);          ///< insert or fetch
  const Json* find(const std::string& key) const;    ///< null when absent
  bool contains(const std::string& key) const { return find(key) != nullptr; }
  std::size_t size() const { return entries_.size(); }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  /// Mutable iteration, for moving values out of an object that is
  /// about to be dropped; keys must not be changed.
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

 private:
  // The parser appends without a lookup and checks key uniqueness once.
  friend class detail::JsonParser;

  std::vector<std::pair<std::string, Json>> entries_;
};

class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;  ///< null
  Json(const Json& other);
  /// A moved-from value is null.
  Json(Json&& other) noexcept : kind_(other.kind_), value_(other.value_) {
    other.kind_ = Kind::Null;
  }
  Json& operator=(const Json& other);
  Json& operator=(Json&& other) noexcept;
  ~Json() {
    if (kind_ >= Kind::String) release();
  }

  Json(bool b) : kind_(Kind::Bool) { value_.boolean = b; }
  Json(double v) : kind_(Kind::Number) { value_.number = v; }
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(std::string s);
  Json(JsonArray a);
  Json(JsonObject o);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }

  /// Typed accessors; throw hmpt::Error on a kind mismatch so malformed
  /// artefacts fail loudly instead of reading as zeroes.
  bool as_bool() const;
  double as_number() const;
  /// A whole number within int range; throws rather than convert a
  /// fractional or out-of-range double.
  int as_int() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object field access; throws when this is not an object or the key is
  /// missing. `get_or` variants return the fallback on a missing key only.
  const Json& at(const std::string& key) const;
  /// Move field `key`'s value out of this object, leaving null in its
  /// place; throws like at(). For taking a subtree out of a document that
  /// is about to be dropped, without a deep copy.
  Json take(const std::string& key);
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

  /// Serialise. `indent` < 0 = compact one-liner; >= 0 pretty-prints with
  /// that many spaces per level. Numbers round-trip exactly: whole numbers
  /// below 1e15 in magnitude print as integers, others in the shortest
  /// form that parses back to the same double.
  std::string dump(int indent = 2) const;

  /// Parse a document; throws hmpt::Error with offset context on garbage,
  /// on a number outside the RFC 8259 grammar, on a repeated object key
  /// and on containers nested deeper than 512 levels.
  static Json parse(const std::string& text);

 private:
  friend class JsonArrayStream;

  void write(std::string& out, int indent, int depth) const;
  /// Free the string or container this value owns.
  void release() noexcept;

  Kind kind_ = Kind::Null;
  // One word of payload: scalars inline, strings and containers behind an
  // owning pointer. Copies are deep, so a Json behaves like any other
  // value type.
  union Value {
    double number = 0.0;
    bool boolean;
    std::string* string;
    JsonArray* array;
    JsonObject* object;
  } value_;
};

static_assert(sizeof(Json) == 16, "Json is a kind tag plus one word");

/// Writes an object whose last key holds an array straight to a stream,
/// one element at a time, in exactly the bytes dump() (indent 2, closing
/// newline) gives for the whole object — so a document of any length is
/// written without holding its array. `head` holds the keys before
/// `array_key`; the array and object close in finish().
class JsonArrayStream {
 public:
  JsonArrayStream(std::ostream& os, const JsonObject& head,
                  const std::string& array_key);
  void push(const Json& element);
  void finish();

 private:
  std::ostream& os_;
  std::string text_;  ///< the pending bytes, reused from write to write
  bool empty_ = true;
};

}  // namespace hmpt
