#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/error.h"

namespace hmpt {

// -------------------------------------------------------------- JsonObject

Json& JsonObject::operator[](const std::string& key) {
  for (auto& [k, v] : entries_)
    if (k == key) return v;
  entries_.emplace_back(key, Json());
  return entries_.back().second;
}

const Json* JsonObject::find(const std::string& key) const {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

// ------------------------------------------------------------------- value

Json::Json(std::string s) : kind_(Kind::String) {
  value_.string = new std::string(std::move(s));
}
Json::Json(JsonArray a) : kind_(Kind::Array) {
  value_.array = new JsonArray(std::move(a));
}
Json::Json(JsonObject o) : kind_(Kind::Object) {
  value_.object = new JsonObject(std::move(o));
}

Json::Json(const Json& other) : kind_(other.kind_), value_(other.value_) {
  if (kind_ == Kind::String)
    value_.string = new std::string(*other.value_.string);
  else if (kind_ == Kind::Array)
    value_.array = new JsonArray(*other.value_.array);
  else if (kind_ == Kind::Object)
    value_.object = new JsonObject(*other.value_.object);
}

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

Json& Json::operator=(Json&& other) noexcept {
  // Take the payload before releasing ours: `other` may live inside the
  // container this value owns.
  const Kind kind = other.kind_;
  const Value value = other.value_;
  other.kind_ = Kind::Null;
  if (kind_ >= Kind::String) release();
  kind_ = kind;
  value_ = value;
  return *this;
}

void Json::release() noexcept {
  switch (kind_) {
    case Kind::String: delete value_.string; break;
    case Kind::Array: delete value_.array; break;
    case Kind::Object: delete value_.object; break;
    default: break;
  }
  kind_ = Kind::Null;
}

bool Json::as_bool() const {
  HMPT_REQUIRE(kind_ == Kind::Bool, "JSON value is not a bool");
  return value_.boolean;
}

double Json::as_number() const {
  HMPT_REQUIRE(kind_ == Kind::Number, "JSON value is not a number");
  return value_.number;
}

int Json::as_int() const {
  const double value = as_number();
  HMPT_REQUIRE(value >= std::numeric_limits<int>::min() &&
                   value <= std::numeric_limits<int>::max() &&
                   value == std::floor(value),
               "JSON number is not an integer in int range");
  return static_cast<int>(value);
}

const std::string& Json::as_string() const {
  HMPT_REQUIRE(kind_ == Kind::String, "JSON value is not a string");
  return *value_.string;
}

const JsonArray& Json::as_array() const {
  HMPT_REQUIRE(kind_ == Kind::Array, "JSON value is not an array");
  return *value_.array;
}

const JsonObject& Json::as_object() const {
  HMPT_REQUIRE(kind_ == Kind::Object, "JSON value is not an object");
  return *value_.object;
}

const Json& Json::at(const std::string& key) const {
  const Json* value = as_object().find(key);
  if (value == nullptr) raise("JSON object has no key '" + key + "'");
  return *value;
}

Json Json::take(const std::string& key) {
  // at() checks the kind and the key; the field it finds belongs to this
  // (non-const) object, so moving from it is sound.
  return std::move(const_cast<Json&>(at(key)));
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* value = as_object().find(key);
  return value == nullptr ? fallback : value->as_number();
}

std::string Json::string_or(const std::string& key,
                            std::string fallback) const {
  const Json* value = as_object().find(key);
  return value == nullptr ? std::move(fallback) : value->as_string();
}

// ------------------------------------------------------------------ writer

namespace {

/// True for the characters a JSON string must escape.
bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  const char* run = s.data();
  const char* const end = run + s.size();
  while (run != end) {
    // Append the longest run that needs no escape in one call.
    const char* stop = run;
    while (stop != end && !needs_escape(*stop)) ++stop;
    out.append(run, stop);
    if (stop == end) break;
    switch (const char c = *stop) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      }
    }
    run = stop + 1;
  }
  out += '"';
}

void write_number(std::string& out, double v) {
  HMPT_REQUIRE(std::isfinite(v), "JSON cannot represent a non-finite number");
  // Integers print without an exponent or trailing ".0" (stable, compact);
  // everything else prints the shortest digits that round-trip exactly.
  char buf[32];
  std::to_chars_result result;
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    if (v == 0.0 && std::signbit(v)) {
      out += "-0";
      return;
    }
    result = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v));
  } else {
    result = std::to_chars(buf, buf + sizeof(buf), v);
  }
  HMPT_REQUIRE(result.ec == std::errc(), "JSON number does not format");
  out.append(buf, result.ptr);
}

void write_newline(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) *
                 static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null: out += "null"; return;
    case Kind::Bool: out += value_.boolean ? "true" : "false"; return;
    case Kind::Number: write_number(out, value_.number); return;
    case Kind::String: write_escaped(out, *value_.string); return;
    case Kind::Array: {
      const JsonArray& array = *value_.array;
      if (array.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      bool first = true;
      for (const Json& item : array) {
        if (!first) out += ',';
        first = false;
        write_newline(out, indent, depth + 1);
        item.write(out, indent, depth + 1);
      }
      write_newline(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::Object: {
      const JsonObject& object = *value_.object;
      if (object.size() == 0) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) out += ',';
        first = false;
        write_newline(out, indent, depth + 1);
        write_escaped(out, key);
        out += indent < 0 ? ":" : ": ";
        value.write(out, indent, depth + 1);
      }
      write_newline(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent >= 0) out += '\n';
  return out;
}

// ----------------------------------------------------------- array stream

namespace {
constexpr int kStreamIndent = 2;  ///< dump()'s default
}  // namespace

JsonArrayStream::JsonArrayStream(std::ostream& os, const JsonObject& head,
                                 const std::string& array_key)
    : os_(os) {
  // The bytes Json::write gives for the object up to the array's '['.
  text_ += '{';
  for (const auto& [key, value] : head) {
    write_newline(text_, kStreamIndent, 1);
    write_escaped(text_, key);
    text_ += ": ";
    value.write(text_, kStreamIndent, 1);
    text_ += ',';
  }
  write_newline(text_, kStreamIndent, 1);
  write_escaped(text_, array_key);
  text_ += ": ";
  os_ << text_;
}

void JsonArrayStream::push(const Json& element) {
  text_.clear();
  text_ += empty_ ? '[' : ',';
  empty_ = false;
  write_newline(text_, kStreamIndent, 2);
  element.write(text_, kStreamIndent, 2);
  os_ << text_;
}

void JsonArrayStream::finish() {
  text_.clear();
  if (empty_) {
    text_ += "[]";
  } else {
    write_newline(text_, kStreamIndent, 1);
    text_ += ']';
  }
  text_ += "\n}\n";
  os_ << text_;
}

// ------------------------------------------------------------------ parser

namespace {

/// Deepest container nesting the parser accepts. hmpt's own artefacts
/// nest fewer than ten levels; the cap keeps the recursive descent from
/// overflowing the stack on hostile input (a socket line of 10^5 '[').
constexpr int kMaxDepth = 512;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// True when any of the eight bytes of `word` ends a plain run: a '"', a
/// '\\' or a control byte below 0x20 (needs_escape, eight at a time).
/// Each term is the classic "has a byte below n" test, exact as a whole
/// for n <= 0x80; the xors turn the two delimiters into zero bytes.
bool any_needs_escape(std::uint64_t word) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  const auto below = [](std::uint64_t x, std::uint64_t n) {
    return (x - kOnes * n) & ~x & kHigh;
  };
  return (below(word ^ (kOnes * '"'), 1) | below(word ^ (kOnes * '\\'), 1) |
          below(word, 0x20)) != 0;
}

}  // namespace

namespace detail {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    raise("JSON parse error at offset " + std::to_string(pos_) + ": " +
          message);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume_keyword(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  /// Counts one level of container nesting for the scope of a parse.
  class Nest {
   public:
    explicit Nest(JsonParser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxDepth)
        parser_.fail("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    JsonParser& parser_;
  };

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (c == 't' && consume_keyword("true")) return Json(true);
    if (c == 'f' && consume_keyword("false")) return Json(false);
    if (c == 'n' && consume_keyword("null")) return Json();
    if (c == '-' || is_digit(c)) return parse_number();
    fail("unexpected character");
  }

  Json parse_object() {
    const Nest nest(*this);
    expect('{');
    JsonObject object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // Appended without a lookup: a lookup per key made an object of n
      // keys cost O(n^2). Uniqueness is checked once at the end.
      object.entries_.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char next = take();
      if (next == '}') break;
      if (next != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    reject_duplicate_keys(object);
    return Json(std::move(object));
  }

  /// Fails on a key that appears twice; O(n log n) in the key count.
  void reject_duplicate_keys(const JsonObject& object) const {
    const auto& entries = object.entries_;
    if (entries.size() < 2) return;
    std::vector<std::string_view> keys;
    keys.reserve(entries.size());
    for (const auto& entry : entries) keys.emplace_back(entry.first);
    std::sort(keys.begin(), keys.end());
    const auto repeated = std::adjacent_find(keys.begin(), keys.end());
    if (repeated != keys.end())
      fail("duplicate object key '" + std::string(*repeated) + "'");
  }

  Json parse_array() {
    const Nest nest(*this);
    expect('[');
    JsonArray array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      const char next = take();
      if (next == ']') return Json(std::move(array));
      if (next != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    const std::size_t size = text_.size();
    while (true) {
      // Copy the run of plain characters up to the next quote, escape or
      // control byte in one append, finding its end eight bytes at a time.
      std::size_t stop = pos_;
      for (std::uint64_t word; stop + 8 <= size; stop += 8) {
        std::memcpy(&word, text_.data() + stop, sizeof word);
        if (any_needs_escape(word)) break;
      }
      while (stop < size && !needs_escape(text_[stop])) ++stop;
      if (stop == size) {
        pos_ = stop;
        fail("unexpected end of input");
      }
      out.append(text_, pos_, stop - pos_);
      pos_ = stop;
      const char c = take();
      if (c == '"') return out;
      if (c != '\\') {
        --pos_;  // RFC 8259: control bytes only appear escaped
        fail("unescaped control character in string");
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // The writer only emits \u00XX for control bytes; decode the
          // Latin-1 range and reject the rest rather than mis-decode.
          if (code > 0xFF) fail("\\u escape beyond \\u00ff unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  /// Advance over one or more digits; fails when there is none.
  void digits(const char* what) {
    if (pos_ >= text_.size() || !is_digit(text_[pos_]))
      fail(std::string("malformed number: expected a digit ") + what);
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
  }

  Json parse_number() {
    // RFC 8259: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
    // from_chars alone would also take 01, 1. or -.5, which the RFC
    // forbids; a stored "01" would then re-dump as "1".
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
      if (pos_ < text_.size() && is_digit(text_[pos_]))
        fail("malformed number: leading zero");
    } else {
      digits("in the integer part");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits("after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits("in the exponent");
    }
    // The token is converted in place. from_chars reports magnitudes
    // beyond a double's range instead of rounding them to 0 or inf; that
    // rare case goes through strtod, which rounds.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range && end == last) {
      const std::string token(first, last);
      value = std::strtod(token.c_str(), nullptr);
    } else if (ec != std::errc() || end != last) {
      fail("malformed number");
    }
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace detail

Json Json::parse(const std::string& text) {
  return detail::JsonParser(text).parse_document();
}

}  // namespace hmpt
