#include "core/outcome_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <type_traits>

#include "common/error.h"

namespace hmpt::tuner {

namespace {

// ------------------------------------------------------------ range checks

[[noreturn]] void bad_field(const char* name, const std::string& problem) {
  raise(std::string("outcome field '") + name + "' " + problem);
}

/// A finite number. The writer refuses non-finite values, so one can only
/// come from damaged text (an out-of-range literal parses to inf).
double finite(const Json& json, const char* name) {
  const double value = json.as_number();
  if (!std::isfinite(value)) bad_field(name, "is not finite");
  return value;
}

/// An integer-valued number in [lo, hi]; every cast below goes through
/// here or Json::as_int, so no out-of-range double is ever converted.
double integer_in(const Json& json, double lo, double hi, const char* name) {
  const double value = json.as_number();
  if (!(value >= lo && value <= hi) || value != std::floor(value))
    bad_field(name, "is not an integer in [" + Json(lo).dump(-1) + ", " +
                        Json(hi).dump(-1) + "]");
  return value;
}

int int_in(const Json& json, int lo, int hi, const char* name) {
  const int value = json.as_int();
  if (value < lo || value > hi)
    bad_field(name, "is outside [" + std::to_string(lo) + ", " +
                        std::to_string(hi) + "]");
  return value;
}

/// A configuration id of a space of `space_size` configurations.
ConfigMask mask_in(const Json& json, std::size_t space_size,
                   const char* name) {
  return static_cast<ConfigMask>(
      integer_in(json, 0.0, static_cast<double>(space_size) - 1.0, name));
}

/// k^n of an n-group, k-tier space, after checking both lie in the range
/// ConfigSpace enumerates.
std::size_t space_size(int num_groups, int num_tiers) {
  if (num_groups < 0 || num_groups > ConfigSpace::kMaxGroups)
    bad_field("num_groups", "is out of range");
  if (num_tiers < 2 || num_tiers > topo::kNumPoolKinds)
    bad_field("num_tiers", "is out of range");
  const std::size_t size = config_count(num_groups, num_tiers);
  if (size > ConfigSpace::kMaxConfigs)
    bad_field("num_groups", "spans more configurations than hmpt sweeps");
  return size;
}

/// Bit-for-bit equality: derivation rules must be lossless, so -0 and 0
/// are different values here.
bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------- columns
//
// Row lists are stored column-wise: one entry per struct field, all of
// equal length. Row i of every column belongs to the same row. Integer
// fields are JSON arrays of numbers; double fields are binary columns
// (below). The kind of a column follows from its field's type. A
// trajectory's verdicts are the one exception: it stores the positions
// of its accepted steps (trajectory_to_json).

template <typename Row, typename Field>
Json column(const std::vector<Row>& rows, Field field) {
  static_assert(!std::is_floating_point_v<decltype(field(rows.front()))>,
                "double fields are stored as binary columns");
  JsonArray values;
  values.reserve(rows.size());
  for (const Row& row : rows) values.push_back(Json(field(row)));
  return Json(std::move(values));
}

/// Column `name` of `columns`, which must hold exactly `rows` entries.
const JsonArray& column_of(const Json& columns, const char* name,
                           std::size_t rows) {
  const JsonArray& values = columns.at(name).as_array();
  if (values.size() != rows)
    bad_field(name, "has " + std::to_string(values.size()) +
                        " entries, expected " + std::to_string(rows));
  return values;
}

// --------------------------------------------------------- binary columns
//
// A double column is one JSON string: the RFC 4648 base64 (padded) of the
// column's IEEE-754 binary64 values, each in little-endian byte order, row
// after row. Bytes are placed with shifts, so the text does not depend on
// the host's byte order; it is exact where shortest decimal is dear to
// print and parse. The decoder accepts one spelling only: the exact
// length, the standard alphabet, '=' only as the final padding and zero
// padding bits; and every value must be finite.
//
// Three values are 24 bytes, exactly eight 3-byte/4-character blocks, so
// both directions work on groups of three rows held in registers. A short
// last group is coded like a full one whose missing values are zero bits,
// of which only the characters that carry data are kept.

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The 6-bit value of each base64 character; 0xFF for every other byte,
/// '=' included.
constexpr std::array<std::uint8_t, 256> kBase64Value = [] {
  std::array<std::uint8_t, 256> values{};
  values.fill(0xFF);
  for (std::uint8_t i = 0; i < 64; ++i)
    values[static_cast<unsigned char>(kBase64Alphabet[i])] = i;
  return values;
}();

constexpr std::size_t kGroupRows = 3;
constexpr std::size_t kGroupChars = 32;

/// Characters of the base64 text of `rows` doubles.
std::size_t base64_length(std::size_t rows) { return 4 * ((8 * rows + 2) / 3); }

/// '=' characters that end the base64 text of `rows` doubles.
std::size_t base64_padding(std::size_t rows) { return (3 - 8 * rows % 3) % 3; }

/// `x` with its eight bytes in reverse order: the big-endian reading of a
/// little-endian value and back.
std::uint64_t reverse_bytes(std::uint64_t x) {
  x = x << 32 | x >> 32;
  x = (x & 0x0000FFFF0000FFFFull) << 16 | (x >> 16 & 0x0000FFFF0000FFFFull);
  return (x & 0x00FF00FF00FF00FFull) << 8 | (x >> 8 & 0x00FF00FF00FF00FFull);
}

/// Base64 of three values' little-endian bytes, 32 characters.
void encode_group(const std::uint64_t (&bits)[kGroupRows], char* out) {
  // The 24 bytes as three big-endian words, cut into eight 24-bit blocks.
  const std::uint64_t a = reverse_bytes(bits[0]);
  const std::uint64_t b = reverse_bytes(bits[1]);
  const std::uint64_t c = reverse_bytes(bits[2]);
  const std::uint64_t blocks[8] = {
      a >> 40,          a >> 16,          a << 8 | b >> 56, b >> 32,
      b >> 8,           b << 16 | c >> 48, c >> 24,         c};
  for (std::size_t i = 0; i < 8; ++i, out += 4) {
    out[0] = kBase64Alphabet[blocks[i] >> 18 & 63];
    out[1] = kBase64Alphabet[blocks[i] >> 12 & 63];
    out[2] = kBase64Alphabet[blocks[i] >> 6 & 63];
    out[3] = kBase64Alphabet[blocks[i] & 63];
  }
}

/// The three values of 32 base64 characters; false when a character lies
/// outside the alphabet.
bool decode_group(const char* in, std::uint64_t (&bits)[kGroupRows]) {
  std::uint64_t blocks[8];
  unsigned invalid = 0;
  for (std::size_t i = 0; i < 8; ++i, in += 4) {
    const unsigned v0 = kBase64Value[static_cast<unsigned char>(in[0])];
    const unsigned v1 = kBase64Value[static_cast<unsigned char>(in[1])];
    const unsigned v2 = kBase64Value[static_cast<unsigned char>(in[2])];
    const unsigned v3 = kBase64Value[static_cast<unsigned char>(in[3])];
    invalid |= v0 | v1 | v2 | v3;
    blocks[i] = v0 << 18 | v1 << 12 | v2 << 6 | v3;
  }
  bits[0] = reverse_bytes(blocks[0] << 40 | blocks[1] << 16 | blocks[2] >> 8);
  bits[1] = reverse_bytes(blocks[2] << 56 | blocks[3] << 32 | blocks[4] << 8 |
                          blocks[5] >> 16);
  bits[2] = reverse_bytes(blocks[5] << 48 | blocks[6] << 24 | blocks[7]);
  return invalid <= 63;
}

/// The binary column of `rows` values, value i being `get(i)`.
template <typename Get>
Json encode_doubles(std::size_t rows, Get get) {
  std::string text(base64_length(rows), '=');
  char* out = text.data();
  std::size_t i = 0;
  for (; i + kGroupRows <= rows; i += kGroupRows, out += kGroupChars) {
    const std::uint64_t bits[kGroupRows] = {
        std::bit_cast<std::uint64_t>(get(i)),
        std::bit_cast<std::uint64_t>(get(i + 1)),
        std::bit_cast<std::uint64_t>(get(i + 2))};
    encode_group(bits, out);
  }
  if (const std::size_t count = rows - i; count > 0) {
    std::uint64_t bits[kGroupRows] = {};
    for (std::size_t j = 0; j < count; ++j)
      bits[j] = std::bit_cast<std::uint64_t>(get(i + j));
    char group[kGroupChars];
    encode_group(bits, group);
    // The characters that carry data; the padding is already '='.
    std::copy_n(group, base64_length(count) - base64_padding(count), out);
  }
  return Json(std::move(text));
}

template <typename Row>
Json binary_column(const std::vector<Row>& rows, double Row::*field) {
  return encode_doubles(rows.size(),
                        [&](std::size_t i) { return rows[i].*field; });
}

/// A binary column of `rows` values. Opening it checks its exact length;
/// each read() of a row range checks that range's characters and values.
class BinaryColumn {
 public:
  BinaryColumn(const Json& columns, const char* name, std::size_t rows)
      : name_(name), text_(columns.at(name).as_string()) {
    if (text_.size() != base64_length(rows))
      bad_field(name, "has " + std::to_string(text_.size()) +
                          " characters, expected " +
                          std::to_string(base64_length(rows)));
  }

  /// Decode rows [begin, end), handing value i to `set(i, value)`.
  /// `begin` is a multiple of kGroupRows, and so is `end` unless it is
  /// the column's row count.
  template <typename Set>
  void read(std::size_t begin, std::size_t end, Set set) const {
    const auto store = [&](std::size_t i, std::size_t count,
                           const std::uint64_t (&bits)[kGroupRows]) {
      for (std::size_t j = 0; j < count; ++j) {
        const double value = std::bit_cast<double>(bits[j]);
        if (!std::isfinite(value))
          bad_field(name_, "holds a non-finite value");
        set(i + j, value);
      }
    };
    const char* in = text_.data() + begin / kGroupRows * kGroupChars;
    std::uint64_t bits[kGroupRows];
    std::size_t i = begin;
    for (; i + kGroupRows <= end; i += kGroupRows, in += kGroupChars) {
      if (!decode_group(in, bits))
        bad_field(name_, "holds a character outside base64");
      store(i, kGroupRows, bits);
    }
    if (const std::size_t count = end - i; count > 0) {
      // The short last group: its data characters, then 'A' (zero bits)
      // in place of the padding and the missing values. Those values
      // must then decode to zero, padding bits included.
      const std::size_t pad = base64_padding(count);
      if (text_.find_first_not_of('=', text_.size() - pad) !=
          std::string::npos)
        bad_field(name_, "is not padded base64");
      char group[kGroupChars];
      std::fill(std::copy_n(in, base64_length(count) - pad, group),
                group + kGroupChars, 'A');
      if (!decode_group(group, bits))
        bad_field(name_, "holds a character outside base64");
      for (std::size_t j = count; j < kGroupRows; ++j)
        if (bits[j] != 0) bad_field(name_, "has non-zero padding bits");
      store(i, count, bits);
    }
  }

 private:
  const char* name_;
  const std::string& text_;
};

/// Rows of binary column `name`, from its length alone: 4·⌈8r/3⌉
/// characters hold r values, and ⌊3L/4⌋/8 inverts that. A length no row
/// count gives fails the exact-length check when the column is opened.
std::size_t binary_rows(const Json& columns, const char* name) {
  return 3 * columns.at(name).as_string().size() / 4 / 8;
}

// ------------------------------------------------------------ row blocks
//
// Row lists are decoded a block of rows at a time, every column of the
// block before the next, so the checks run in the same order whether the
// caller keeps the rows (they land in place in the outcome) or skips
// them (each block reuses one fixed buffer and is then dropped).

/// Rows decoded at a time: whole base64 groups, so only a column's last
/// block can end inside a group.
constexpr std::size_t kBlockRows = 32 * kGroupRows;

/// Calls `visit(begin, end)` on consecutive blocks covering [0, rows).
template <typename Visit>
void for_each_block(std::size_t rows, Visit visit) {
  for (std::size_t begin = 0; begin < rows; begin += kBlockRows)
    visit(begin, std::min(rows, begin + kBlockRows));
}

/// Where decoded rows go: `kept`, sized for every row, or with no `kept`
/// (Rows::Skip) one block reused for each block in turn.
template <typename Row>
class RowSink {
 public:
  RowSink(std::vector<Row>* kept, std::size_t rows) : kept_(kept) {
    if (kept_ != nullptr) kept_->resize(rows);
  }

  /// Storage for the block that starts at row `begin`, indexed from 0.
  Row* block(std::size_t begin) {
    return kept_ != nullptr ? kept_->data() + begin : reused_.data();
  }

 private:
  std::vector<Row>* kept_;
  std::array<Row, kBlockRows> reused_{};
};

// ---------------------------------------------------------- derived values
//
// A row stores what was measured. Its speedup, HBM fractions and group
// count are functions of the row (experiment.h), computed by whoever
// reads them, so the decoder's checks make every one of them finite:
//
//   speedup        baseline / time: checked on every row and on the
//                  chosen time, one division each
//   hbm_usage      sums of the outcome's weights over their totals: the
//   hbm_density    sums of any placement are bounded by the sums of the
//                  one with every group in HBM, checked once per record
//   groups_in_hbm  a count of the mask's digits: always in range

/// Checks that a row of time `time` has a finite speedup.
void check_speedup(double baseline, double time, const char* name) {
  if (!std::isfinite(speedup_of(baseline, time)))
    bad_field(name, "gives a non-finite speedup");
}

/// Checks an outcome's weights, on encode and decode alike: one finite,
/// non-negative weight per group, a positive footprint total and a
/// non-negative traffic total. Any placement's HBM fraction sums a subset
/// of the same weights in the same order, and rounding is monotone, so
/// when the placement with every group in HBM has finite fractions, every
/// placement does.
void check_weights(const GroupWeights& w, int num_groups, int num_tiers) {
  const auto per_group = [&](const std::vector<double>& weights,
                             const char* name) {
    if (weights.size() != static_cast<std::size_t>(num_groups))
      bad_field(name, "does not hold one weight per group");
    for (const double weight : weights)
      if (!(std::isfinite(weight) && weight >= 0.0))
        bad_field(name, "holds a negative or non-finite weight");
  };
  per_group(w.footprint_bytes, "footprint_bytes");
  per_group(w.traffic_bytes, "traffic_bytes");
  if (!(std::isfinite(w.footprint_total) && w.footprint_total > 0.0))
    bad_field("footprint_total", "is not positive and finite");
  if (!(std::isfinite(w.traffic_total) && w.traffic_total >= 0.0))
    bad_field("traffic_total", "is negative or not finite");
  const ConfigMask all_in_hbm = config_uniform_id(num_groups, 1, num_tiers);
  if (!std::isfinite(hbm_usage_of(w, all_in_hbm, num_tiers)))
    bad_field("footprint_bytes", "gives a non-finite HBM usage");
  if (!std::isfinite(hbm_density_of(w, all_in_hbm, num_tiers)))
    bad_field("traffic_bytes", "gives a non-finite HBM density");
}

/// The binary column `name` of `json`, one value per group.
std::vector<double> weights_from_json(const Json& json, const char* name,
                                      int num_groups) {
  std::vector<double> weights(static_cast<std::size_t>(num_groups));
  BinaryColumn(json, name, weights.size())
      .read(0, weights.size(),
            [&](std::size_t i, double weight) { weights[i] = weight; });
  return weights;
}

/// Configuration rows, whose masks must strictly increase. The mask
/// column is left out when row i holds mask i (a full sweep), and restored
/// from the row number on decode. The stddev column is left out when every
/// stddev is +0.0 (a noise-free simulator), and restored as +0.0; a stored
/// one must hold another value.
Json configs_to_json(const std::vector<ConfigResult>& configs) {
  bool identity = true;
  bool noise_free = true;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (i > 0 && configs[i].mask <= configs[i - 1].mask)
      bad_field("mask", "is not strictly increasing");
    identity = identity && configs[i].mask == static_cast<ConfigMask>(i);
    noise_free = noise_free && same(configs[i].stddev_time, 0.0);
  }
  JsonObject o;
  if (!identity)
    o["mask"] = column(configs, [](const ConfigResult& c) { return c.mask; });
  o["mean_time"] = binary_column(configs, &ConfigResult::mean_time);
  if (!noise_free)
    o["stddev_time"] = binary_column(configs, &ConfigResult::stddev_time);
  return Json(std::move(o));
}

/// Decode configuration rows into `kept`; with no `kept` every row is
/// checked and dropped.
void configs_from_json(const Json& columns, double baseline,
                       std::size_t space, std::vector<ConfigResult>* kept) {
  const std::size_t rows = binary_rows(columns, "mean_time");
  if (rows > space)
    bad_field("mean_time", "lists more configurations than the space holds");
  const JsonArray* masks = columns.as_object().contains("mask")
                               ? &column_of(columns, "mask", rows)
                               : nullptr;
  const BinaryColumn mean_time(columns, "mean_time", rows);
  std::optional<BinaryColumn> stddev_time;
  if (columns.as_object().contains("stddev_time"))
    stddev_time.emplace(columns, "stddev_time", rows);
  bool noise_free = true;
  ConfigMask previous = 0;

  RowSink<ConfigResult> sink(kept, rows);
  for_each_block(rows, [&](std::size_t begin, std::size_t end) {
    ConfigResult* block = sink.block(begin);
    const auto row = [&](std::size_t i) -> ConfigResult& {
      return block[i - begin];
    };
    for (std::size_t i = begin; i < end; ++i) {
      ConfigResult& c = row(i);
      c.mask = masks != nullptr ? mask_in((*masks)[i], space, "mask")
                                : static_cast<ConfigMask>(i);
      if (i > 0 && c.mask <= previous)
        bad_field("mask", "is not strictly increasing");
      previous = c.mask;
      c.stddev_time = 0.0;
    }
    mean_time.read(begin, end, [&](std::size_t i, double value) {
      check_speedup(baseline, value, "mean_time");
      row(i).mean_time = value;
    });
    if (stddev_time)
      stddev_time->read(begin, end, [&](std::size_t i, double value) {
        noise_free = noise_free && same(value, 0.0);
        row(i).stddev_time = value;
      });
  });
  if (stddev_time && noise_free)
    bad_field("stddev_time", "is stored though every value is +0.0");
}

/// Checks that a sweep is its outcome's. A sweep stores only its rows: the
/// decoder takes its baseline and shape from the outcome, which must have
/// a group, as every ConfigSpace does.
void check_sweep(const SweepResult& sweep, const TuningOutcome& outcome) {
  if (sweep.num_groups != outcome.num_groups ||
      sweep.num_tiers != outcome.num_tiers ||
      !same(sweep.baseline_time, outcome.baseline_time))
    bad_field("sweep", "does not share the outcome's num_groups, num_tiers "
                       "and baseline_time");
  if (outcome.num_groups < 1) bad_field("sweep", "needs at least one group");
}

/// The mean time of the row of `rows` (sorted by mask) holding `mask`,
/// or nullopt.
std::optional<double> mean_time_of(const std::vector<ConfigResult>& rows,
                                   ConfigMask mask) {
  const auto row = std::lower_bound(
      rows.begin(), rows.end(), mask,
      [](const ConfigResult& c, ConfigMask m) { return c.mask < m; });
  if (row == rows.end() || row->mask != mask) return std::nullopt;
  return row->mean_time;
}

/// The configuration rows left-out values are looked up in: those of
/// TuningOutcome::configs(), as stored. The headline reads its baseline
/// and chosen time from them before configs_from_json checks them, so a
/// lookup compares stored masks as doubles and never casts one; a mask
/// column that is not strictly increasing may send it to the wrong row,
/// but is then refused. A mask is found by binary search over the stored
/// mask column, or as row i = mask i where there is none, so a lookup
/// allocates nothing.
class StoredRows {
 public:
  explicit StoredRows(const Json& columns)
      : rows_(binary_rows(columns, "mean_time")),
        masks_(columns.as_object().contains("mask")
                   ? &column_of(columns, "mask", rows_)
                   : nullptr),
        mean_time_(columns, "mean_time", rows_) {}

  std::size_t size() const { return rows_; }

  /// The row holding `mask`, or nullopt.
  std::optional<std::size_t> find(ConfigMask mask) const {
    if (masks_ == nullptr)
      return mask < rows_ ? std::optional<std::size_t>(mask) : std::nullopt;
    const auto target = static_cast<double>(mask);
    std::size_t lo = 0;
    std::size_t hi = rows_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const double at = (*masks_)[mid].as_number();
      if (at == target) return mid;
      if (at < target) lo = mid + 1; else hi = mid;
    }
    return std::nullopt;
  }

  /// The mean time of row `row`.
  double mean_time(std::size_t row) const {
    const std::size_t begin = row - row % kGroupRows;
    double value = 0.0;
    mean_time_.read(begin, std::min(rows_, begin + kGroupRows),
                    [&](std::size_t i, double time) {
                      if (i == row) value = time;
                    });
    return value;
  }

  /// The mean time of the row holding `mask`, or nullopt.
  std::optional<double> mean_time_of(ConfigMask mask) const {
    const auto row = find(mask);
    return row ? std::optional<double>(mean_time(*row)) : std::nullopt;
  }

 private:
  std::size_t rows_;
  const JsonArray* masks_;
  BinaryColumn mean_time_;
};

/// A trajectory, column-wise, with two derivation rules:
///   observed_time  left out when every step's time has the bits of the
///                  mean_time of its mask's row in `rows` (a step and its
///                  row are one measurement, or identical observations
///                  of a noise-free simulator averaged), and restored
///                  from the rows; a stored column must differ somewhere
///   index          stored as its first value when each index is one
///                  more than the previous (an empty trajectory stores
///                  1), else as an array, which must not count up by one
/// and its verdicts as `accepted`, the strictly increasing positions
/// (from 0) of the accepted steps. `rows` are sorted by mask
/// (configs_to_json refuses them otherwise).
Json trajectory_to_json(const std::vector<TuningStep>& steps,
                        const std::vector<ConfigResult>& rows) {
  bool counts = true;
  bool derivable = true;
  JsonArray accepted;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    counts = counts && (i == 0 || std::int64_t{steps[i].index} ==
                                      std::int64_t{steps[i - 1].index} + 1);
    const auto time = mean_time_of(rows, steps[i].mask);
    derivable = derivable && time && same(*time, steps[i].observed_time);
    if (steps[i].accepted) accepted.push_back(Json(std::uint64_t{i}));
  }
  JsonObject o;
  if (counts)
    o["index"] = Json(steps.empty() ? 1 : steps.front().index);
  else
    o["index"] = column(steps, [](const TuningStep& s) { return s.index; });
  o["mask"] = column(steps, [](const TuningStep& s) { return s.mask; });
  if (!derivable)
    o["observed_time"] = binary_column(steps, &TuningStep::observed_time);
  o["accepted"] = Json(std::move(accepted));
  return Json(std::move(o));
}

/// Decode a columnar trajectory into `kept`, taking left-out times from
/// `rows`; with no `kept` every step is checked and dropped.
void trajectory_from_columns(const Json& columns, std::size_t space,
                             double baseline, const StoredRows& rows,
                             std::vector<TuningStep>* kept) {
  const std::size_t steps = columns.at("mask").as_array().size();
  const JsonArray& mask = column_of(columns, "mask", steps);
  // The accepted steps' positions, strictly increasing below `steps`.
  const JsonArray& accepted = columns.at("accepted").as_array();
  double first_free = 0.0;
  for (const Json& position : accepted) {
    if (position.kind() != Json::Kind::Number)
      bad_field("accepted", "holds a value that is not a step position");
    first_free = integer_in(position, first_free,
                            static_cast<double>(steps) - 1.0, "accepted") +
                 1.0;
  }
  std::size_t next_accepted = 0;
  const Json& index = columns.at("index");
  const JsonArray* indices = nullptr;
  int start = 0;
  if (index.kind() == Json::Kind::Number) {
    // An empty trajectory's start is 1; a run of steps ends by INT_MAX.
    const double last = steps == 0 ? 1.0
                                   : static_cast<double>(INT_MAX) -
                                         static_cast<double>(steps - 1);
    start = static_cast<int>(
        integer_in(index, steps == 0 ? 1.0 : 0.0, last, "index"));
  } else {
    indices = &column_of(columns, "index", steps);
  }
  std::optional<BinaryColumn> observed_time;
  if (columns.as_object().contains("observed_time"))
    observed_time.emplace(columns, "observed_time", steps);
  bool counts = true;
  int previous = 0;
  bool derivable = true;

  RowSink<TuningStep> sink(kept, steps);
  for_each_block(steps, [&](std::size_t begin, std::size_t end) {
    TuningStep* block = sink.block(begin);
    const auto step = [&](std::size_t i) -> TuningStep& {
      return block[i - begin];
    };
    for (std::size_t i = begin; i < end; ++i) {
      TuningStep& s = step(i);
      if (indices != nullptr) {
        s.index = int_in((*indices)[i], 0, INT_MAX, "index");
        counts = counts && (i == 0 || std::int64_t{s.index} ==
                                          std::int64_t{previous} + 1);
        previous = s.index;
      } else {
        s.index = start + static_cast<int>(i);
      }
      s.mask = mask_in(mask[i], space, "mask");
      s.accepted = next_accepted < accepted.size() &&
                   accepted[next_accepted].as_number() ==
                       static_cast<double>(i);
      next_accepted += s.accepted ? 1 : 0;
    }
    if (observed_time) {
      observed_time->read(begin, end, [&](std::size_t i, double value) {
        check_speedup(baseline, value, "observed_time");
        step(i).observed_time = value;
        const auto row = rows.find(step(i).mask);
        derivable = derivable && row && same(rows.mean_time(*row), value);
      });
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const auto row = rows.find(step(i).mask);
        if (!row)
          bad_field("observed_time",
                    "is left out though a step's mask has no row");
        step(i).observed_time = rows.mean_time(*row);
      }
    }
  });
  if (indices != nullptr && counts)
    bad_field("index", "is stored as an array though it counts up by one");
  if (observed_time && derivable)
    bad_field("observed_time",
              "is stored though every step's time is its row's mean_time");
}

// -------------------------------------------------------- headline values
//
// A headline value the rest of the record already holds is left out, and
// the decoder derives it bit for bit:
//   baseline_time     the mean_time of configs()' mask-0 row
//   chosen_time       the mean_time of configs()' chosen_mask row
//   configs_measured  the number of configs() rows
//   footprint_total   footprint_bytes summed in group order from 0.0
//   traffic_total     traffic_bytes, likewise (tier_sums' order)
// Each has one spelling: a stored value must differ from its derivation,
// and a left-out one needs a row to derive it from.

/// `weights` summed in group order from 0.0.
double group_sum(const std::vector<double>& weights) {
  return std::accumulate(weights.begin(), weights.end(), 0.0);
}

/// Stores `value` as `o[name]` unless it has the bits of `derived`.
void put_unless_derived(JsonObject& o, const char* name, double value,
                        std::optional<double> derived) {
  if (!derived || !same(value, *derived)) o[name] = Json(value);
}

/// Headline field `name` of `json`: `read` of the stored value, which must
/// differ from `derived`, or, left out, `derived`, which must exist.
double stored_or_derived(const Json& json, const char* name,
                         std::optional<double> derived,
                         double (*read)(const Json&, const char*)) {
  const Json* stored = json.as_object().find(name);
  if (stored == nullptr) {
    if (!derived) bad_field(name, "is left out though no row holds it");
    return *derived;
  }
  const double value = read(*stored, name);
  if (derived && same(value, *derived))
    bad_field(name, "is stored though the record derives it");
  return value;
}

/// A count: an integer in [0, INT_MAX].
double stored_count(const Json& json, const char* name) {
  return integer_in(json, 0.0, INT_MAX, name);
}

}  // namespace

Json outcome_to_json(const TuningOutcome& outcome) {
  // Sorted by mask, or configs_to_json below refuses them.
  const std::vector<ConfigResult>& rows = outcome.configs();
  JsonObject o;
  o["strategy"] = Json(outcome.strategy);
  o["workload"] = Json(outcome.workload);
  o["num_groups"] = Json(outcome.num_groups);
  o["num_tiers"] = Json(outcome.num_tiers);
  o["chosen_mask"] = Json(static_cast<std::uint64_t>(outcome.chosen_mask));
  check_speedup(outcome.baseline_time, outcome.chosen_time, "chosen_time");
  put_unless_derived(o, "chosen_time", outcome.chosen_time,
                     mean_time_of(rows, outcome.chosen_mask));
  put_unless_derived(o, "baseline_time", outcome.baseline_time,
                     mean_time_of(rows, 0));
  put_unless_derived(o, "configs_measured", outcome.configs_measured,
                     static_cast<double>(rows.size()));
  o["measurements"] = Json(outcome.measurements);
  const GroupWeights& w = outcome.weights;
  check_weights(w, outcome.num_groups, outcome.num_tiers);
  const auto weights = [&](const char* name, const char* total_name,
                           const std::vector<double>& values, double total) {
    o[name] = encode_doubles(values.size(),
                             [&](std::size_t i) { return values[i]; });
    put_unless_derived(o, total_name, total, group_sum(values));
  };
  weights("footprint_bytes", "footprint_total", w.footprint_bytes,
          w.footprint_total);
  weights("traffic_bytes", "traffic_total", w.traffic_bytes, w.traffic_total);
  // The trajectory keeps its place and is filled once the row lists it
  // looks its times up in are checked (sorted by mask).
  o["trajectory"] = Json();
  o["table"] = configs_to_json(outcome.table);
  if (outcome.sweep.has_value()) {
    check_sweep(*outcome.sweep, outcome);
    JsonObject sweep;
    sweep["configs"] = configs_to_json(outcome.sweep->configs);
    o["sweep"] = Json(std::move(sweep));
  }
  o["trajectory"] = trajectory_to_json(outcome.trajectory, rows);
  return Json(std::move(o));
}

TuningOutcome outcome_from_json(const Json& json, Rows rows) {
  const bool keep = rows == Rows::Keep;
  TuningOutcome out;
  out.strategy = json.at("strategy").as_string();
  out.workload = json.at("workload").as_string();
  out.num_groups = int_in(json.at("num_groups"), 0, ConfigSpace::kMaxGroups,
                          "num_groups");
  out.num_tiers =
      int_in(json.at("num_tiers"), 2, topo::kNumPoolKinds, "num_tiers");
  const std::size_t space = space_size(out.num_groups, out.num_tiers);
  out.chosen_mask = mask_in(json.at("chosen_mask"), space, "chosen_mask");
  // configs(): the sweep's rows when there is a sweep, else the table. The
  // headline's left-out values are read from them before any row's
  // speedup is checked, since that check needs the baseline.
  const Json* stored = json.as_object().find("sweep");
  const StoredRows configs(stored != nullptr ? stored->at("configs")
                                             : json.at("table"));
  out.baseline_time = stored_or_derived(json, "baseline_time",
                                        configs.mean_time_of(0), finite);
  out.chosen_time = stored_or_derived(
      json, "chosen_time", configs.mean_time_of(out.chosen_mask), finite);
  check_speedup(out.baseline_time, out.chosen_time, "chosen_time");
  out.configs_measured = static_cast<int>(
      stored_or_derived(json, "configs_measured",
                        static_cast<double>(configs.size()), stored_count));
  out.measurements =
      int_in(json.at("measurements"), 0, INT_MAX, "measurements");
  GroupWeights& w = out.weights;
  w.footprint_bytes =
      weights_from_json(json, "footprint_bytes", out.num_groups);
  w.footprint_total = stored_or_derived(json, "footprint_total",
                                        group_sum(w.footprint_bytes), finite);
  w.traffic_bytes = weights_from_json(json, "traffic_bytes", out.num_groups);
  w.traffic_total = stored_or_derived(json, "traffic_total",
                                      group_sum(w.traffic_bytes), finite);
  check_weights(w, out.num_groups, out.num_tiers);
  configs_from_json(json.at("table"), out.baseline_time, space,
                    keep ? &out.table : nullptr);
  if (stored != nullptr) {
    SweepResult sweep;
    sweep.baseline_time = out.baseline_time;
    sweep.num_groups = out.num_groups;
    sweep.num_tiers = out.num_tiers;
    check_sweep(sweep, out);
    configs_from_json(stored->at("configs"), out.baseline_time, space,
                      keep ? &sweep.configs : nullptr);
    if (keep) out.sweep = std::move(sweep);
  }
  trajectory_from_columns(json.at("trajectory"), space, out.baseline_time,
                          configs, keep ? &out.trajectory : nullptr);
  return out;
}

}  // namespace hmpt::tuner
