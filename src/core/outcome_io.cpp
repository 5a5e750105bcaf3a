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
#include <utility>
#include <vector>

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
// fields are JSON arrays of numbers; double fields are double columns
// (below). The kind of a column follows from its field's type. A
// trajectory's verdicts are the one exception: it stores the positions
// of its accepted steps (trajectory_to_json).

template <typename Row, typename Field>
Json column(const std::vector<Row>& rows, Field field) {
  static_assert(!std::is_floating_point_v<decltype(field(rows.front()))>,
                "double fields are stored as double columns");
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

// --------------------------------------------------------- double columns
//
// A double column is one JSON string: the RFC 4648 base64 (padded) of
//
//   r        the row count, an unsigned LEB128 varint
//   D        the number of distinct values (bit patterns), a varint
//   dict     D varints: the smallest pattern, read as an unsigned 64-bit
//            integer, then each next pattern's difference (>= 1) from
//            the one before
//   ranks    r ranks into dict, row after row, each w = bit_width(D - 1)
//            bits wide, packed from the least significant bit of each
//            byte up, the last byte's unused bits zero
//
// Times repeat across a sweep (a 3^8 sweep holds 1,250-6,100 distinct
// times in 6,561 rows), and neighbouring patterns of a sorted dictionary
// are close, so a row costs w bits plus a small share of the dictionary
// instead of 8 bytes. Bytes are placed with shifts, so the text does not
// depend on the host's byte order. The decoder accepts one spelling only:
// the standard alphabet, '=' only as the final padding, zero padding bits
// (base64's and the ranks'), minimal varints of at most 64 bits, 1 <= D <=
// r (D = 0 only when r = 0), steps of at least 1 that never wrap, finite
// values, ranks below D with every dictionary value used, and no trailing
// byte. The row count is checked against what the caller expects before
// anything is allocated, so a column costs at most 8 bytes per expected
// row.

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

/// Bits per rank of a dictionary of `distinct` values.
int rank_width(std::uint64_t distinct) {
  return distinct > 1 ? std::bit_width(distinct - 1) : 0;
}

void put_varint(std::string& bytes, std::uint64_t value) {
  for (; value >= 0x80; value >>= 7)
    bytes.push_back(static_cast<char>((value & 0x7F) | 0x80));
  bytes.push_back(static_cast<char>(value));
}

/// Padded base64 of `bytes`.
std::string base64(const std::string& bytes) {
  std::string text(4 * ((bytes.size() + 2) / 3), '=');
  char* out = text.data();
  for (std::size_t i = 0; i < bytes.size(); i += 3, out += 4) {
    const std::size_t count = std::min<std::size_t>(3, bytes.size() - i);
    std::uint32_t block = 0;
    for (std::size_t j = 0; j < 3; ++j)
      block = block << 8 |
              (j < count ? static_cast<unsigned char>(bytes[i + j]) : 0u);
    // The characters that carry data; the padding is already '='.
    for (std::size_t j = 0; j <= count; ++j)
      out[j] = kBase64Alphabet[block >> (18 - 6 * j) & 63];
  }
  return text;
}

/// A bit pattern and the row it came from.
using PatternRow = std::pair<std::uint64_t, std::uint32_t>;

/// `items` sorted by pattern, rows in order among equal patterns: a
/// stable radix sort with one pass per byte in which the patterns differ
/// (a sweep's times share their sign, exponent and top mantissa bits).
void sort_by_pattern(std::vector<PatternRow>& items) {
  std::array<std::array<std::size_t, 256>, 8> start{};
  for (const PatternRow& item : items)
    for (int d = 0; d < 8; ++d) ++start[d][item.first >> 8 * d & 0xFF];
  std::vector<PatternRow> sorted(items.size());
  for (int d = 0; d < 8 && !items.empty(); ++d) {
    std::array<std::size_t, 256>& at = start[d];
    if (at[items.front().first >> 8 * d & 0xFF] == items.size()) continue;
    std::size_t sum = 0;
    for (std::size_t& bucket : at) sum += std::exchange(bucket, sum);
    for (const PatternRow& item : items)
      sorted[at[item.first >> 8 * d & 0xFF]++] = item;
    items.swap(sorted);
  }
}

/// The double column of `rows` values, value i being `get(i)`.
template <typename Get>
Json encode_doubles(std::size_t rows, Get get) {
  // Each row's pattern beside its row number, sorted by pattern: the
  // dictionary is the distinct patterns in that order, and a row's rank
  // is the number of distinct patterns below its own.
  std::vector<PatternRow> sorted(rows);
  for (std::size_t i = 0; i < rows; ++i)
    sorted[i] = {std::bit_cast<std::uint64_t>(get(i)),
                 static_cast<std::uint32_t>(i)};
  sort_by_pattern(sorted);
  std::vector<std::uint32_t> ranks(rows);
  std::uint32_t distinct = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    distinct += i == 0 || sorted[i].first != sorted[i - 1].first;
    ranks[sorted[i].second] = distinct - 1;
  }
  std::string bytes;
  put_varint(bytes, rows);
  put_varint(bytes, distinct);
  for (std::size_t i = 0; i < rows; ++i)
    if (i == 0 || sorted[i].first != sorted[i - 1].first)
      put_varint(bytes, sorted[i].first - (i == 0 ? 0 : sorted[i - 1].first));
  const int width = rank_width(distinct);
  std::uint64_t pending = 0;
  int bits = 0;
  for (const std::uint32_t rank : ranks) {
    pending |= std::uint64_t{rank} << bits;
    for (bits += width; bits >= 8; bits -= 8, pending >>= 8)
      bytes.push_back(static_cast<char>(pending & 0xFF));
  }
  if (bits > 0) bytes.push_back(static_cast<char>(pending));
  return Json(base64(bytes));
}

template <typename Row>
Json double_column(const std::vector<Row>& rows, double Row::*field) {
  return encode_doubles(rows.size(),
                        [&](std::size_t i) { return rows[i].*field; });
}

/// The row count a caller expects of a column: exactly `rows`, or (a
/// configuration list) at most the `space` size.
struct RowCount {
  std::size_t rows;
  bool at_most = false;
};

/// A double column, validated whole when opened; it then holds its
/// dictionary (D doubles) and reads each row's rank in place from the
/// base64 text.
class DoubleColumn {
 public:
  DoubleColumn(const Json& columns, const char* name, RowCount expected)
      : name_(name), text_(columns.at(name).as_string()) {
    open_text();
    Cursor in(*this, 0);
    rows_ = varint(in);
    if (expected.at_most && rows_ > expected.rows)
      bad_field(name_, "lists more configurations than the space holds");
    if (!expected.at_most && rows_ != expected.rows)
      bad_field(name_, "has " + std::to_string(rows_) + " rows, expected " +
                           std::to_string(expected.rows));
    const std::uint64_t distinct = varint(in);
    if (rows_ == 0 ? distinct != 0 : distinct < 1 || distinct > rows_)
      bad_field(name_, "has " + std::to_string(distinct) +
                           " distinct values for " + std::to_string(rows_) +
                           " rows");
    dict_.reserve(distinct);
    std::uint64_t pattern = 0;
    for (std::uint64_t k = 0; k < distinct; ++k) {
      const std::uint64_t step = varint(in);
      if (k > 0 && step == 0) bad_field(name_, "repeats a dictionary value");
      if (step > UINT64_MAX - pattern)
        bad_field(name_, "has a dictionary value past 2^64");
      pattern += step;
      const double value = std::bit_cast<double>(pattern);
      if (!std::isfinite(value)) bad_field(name_, "holds a non-finite value");
      dict_.push_back(value);
    }
    width_ = rank_width(distinct);
    ranks_at_ = in.at;
    const std::uint64_t rank_bits = std::uint64_t{rows_} * width_;
    const std::uint64_t rank_bytes = (rank_bits + 7) / 8;
    if (size_ - ranks_at_ < rank_bytes) bad_field(name_, "ends early");
    if (size_ - ranks_at_ > rank_bytes) bad_field(name_, "has trailing bytes");
    std::vector<std::uint64_t> used((distinct + 63) / 64);
    for_each_rank([&](std::size_t, std::uint64_t rank) {
      if (rank >= distinct)
        bad_field(name_, "holds a rank past its dictionary");
      used[rank / 64] |= std::uint64_t{1} << rank % 64;
    });
    for (std::uint64_t k = 0; k < distinct; ++k)
      if ((used[k / 64] >> k % 64 & 1) == 0)
        bad_field(name_, "holds an unused dictionary value");
    if (rank_bits % 8 != 0 &&
        Cursor(*this, size_ - 1).next() >> rank_bits % 8 != 0)
      bad_field(name_, "has non-zero padding bits");
  }

  std::size_t size() const { return rows_; }

  /// The distinct values, in the order of their bit patterns.
  const std::vector<double>& values() const { return dict_; }

  /// The value of row `row`.
  double operator[](std::size_t row) const {
    const std::uint64_t bit = std::uint64_t{row} * width_;
    Cursor in(*this, ranks_at_ + bit / 8);
    std::uint64_t bits = 0;
    for (int have = 0; have < static_cast<int>(bit % 8) + width_; have += 8)
      bits |= std::uint64_t{in.next()} << have;
    return dict_[bits >> bit % 8 & low_bits()];
  }

  /// Calls `visit(i, value)` on every row in order.
  template <typename Visit>
  void for_each(Visit visit) const {
    for_each_rank([&](std::size_t i, std::uint64_t rank) {
      visit(i, dict_[rank]);
    });
  }

 private:
  /// Reads the decoded bytes in order from byte `at`, one base64 block
  /// (4 characters, 3 bytes) at a time. A padding '=' decodes as 63, but
  /// its bits lie past the column's last byte.
  struct Cursor {
    Cursor(const DoubleColumn& column, std::size_t from)
        : in(column.text_.data() + 4 * (from / 3)), at(from) {
      if (from % 3 != 0) {
        load();
        left = static_cast<int>(3 - from % 3);
      }
    }

    void load() {
      block = 0;
      for (int j = 0; j < 4; ++j)
        block = block << 6 |
                (kBase64Value[static_cast<unsigned char>(in[j])] & 63u);
      in += 4;
      left = 3;
    }

    std::uint8_t next() {
      if (left == 0) load();
      ++at;
      return static_cast<std::uint8_t>(block >> 8 * --left);
    }

    const char* in;      ///< the characters of the next block
    std::size_t at;      ///< the byte next() returns
    std::uint32_t block = 0;
    int left = 0;        ///< bytes of `block` not yet returned
  };

  /// Checks the text's spelling and sets the byte count.
  void open_text() {
    if (text_.size() % 4 != 0) bad_field(name_, "is not padded base64");
    std::size_t pad = 0;
    while (pad < 2 && pad < text_.size() &&
           text_[text_.size() - 1 - pad] == '=')
      ++pad;
    const std::size_t chars = text_.size() - pad;
    for (std::size_t i = 0; i < chars; ++i)
      if (kBase64Value[static_cast<unsigned char>(text_[i])] > 63)
        bad_field(name_, "holds a character outside base64");
    // The last character's bits past the data: 2 with one '=', 4 with two.
    if (pad > 0 &&
        (kBase64Value[static_cast<unsigned char>(text_[chars - 1])] &
         ((1u << 2 * pad) - 1)) != 0)
      bad_field(name_, "has non-zero padding bits");
    size_ = 3 * text_.size() / 4 - pad;
  }

  /// The varint at `in`: minimal, at most 64 bits.
  std::uint64_t varint(Cursor& in) const {
    std::uint64_t value = 0;
    for (int shift = 0;; shift += 7) {
      if (in.at == size_) bad_field(name_, "ends early");
      const std::uint8_t b = in.next();
      if (shift == 63 && b > 1)
        bad_field(name_, "holds a varint past 64 bits");
      value |= std::uint64_t{b & 0x7Fu} << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift > 0)
          bad_field(name_, "holds a varint that is not minimal");
        return value;
      }
    }
  }

  std::uint64_t low_bits() const { return (std::uint64_t{1} << width_) - 1; }

  template <typename Visit>
  void for_each_rank(Visit visit) const {
    Cursor in(*this, ranks_at_);
    std::uint64_t pending = 0;
    int bits = 0;
    for (std::size_t i = 0; i < rows_; ++i) {
      for (; bits < width_; bits += 8)
        pending |= std::uint64_t{in.next()} << bits;
      visit(i, pending & low_bits());
      pending >>= width_;
      bits -= width_;
    }
  }

  const char* name_;
  const std::string& text_;
  std::size_t size_ = 0;  ///< decoded bytes
  std::size_t rows_ = 0;
  int width_ = 0;
  std::size_t ranks_at_ = 0;  ///< first byte of the ranks
  std::vector<double> dict_;
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

/// The double column `name` of `json`, one value per group.
std::vector<double> weights_from_json(const Json& json, const char* name,
                                      int num_groups) {
  std::vector<double> weights(static_cast<std::size_t>(num_groups));
  DoubleColumn(json, name, {weights.size()})
      .for_each([&](std::size_t i, double weight) { weights[i] = weight; });
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
  o["mean_time"] = double_column(configs, &ConfigResult::mean_time);
  if (!noise_free)
    o["stddev_time"] = double_column(configs, &ConfigResult::stddev_time);
  return Json(std::move(o));
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

/// A configuration row list as stored: its mask column (or none) and its
/// opened mean_time column, whose row count is at most the space's. The
/// headline reads left-out values from configs()' rows before any row's
/// speedup is checked, so a lookup compares stored masks as doubles and
/// never casts one; a mask column that is not strictly increasing may
/// send it to the wrong row, but is then refused. A mask is found by
/// binary search over the stored mask column, or as row i = mask i where
/// there is none, and its time as its rank's dictionary value, so a
/// lookup allocates nothing.
class StoredRows {
 public:
  StoredRows(const Json& columns, std::size_t space)
      : mean_time_(columns, "mean_time", {space, true}),
        masks_(columns.as_object().contains("mask")
                   ? &column_of(columns, "mask", mean_time_.size())
                   : nullptr) {}

  std::size_t size() const { return mean_time_.size(); }

  const DoubleColumn& mean_time() const { return mean_time_; }

  /// The mask of row `row`, checked to lie below `space`.
  ConfigMask mask(std::size_t row, std::size_t space) const {
    return masks_ != nullptr ? mask_in((*masks_)[row], space, "mask")
                             : static_cast<ConfigMask>(row);
  }

  /// The row holding `mask`, or nullopt.
  std::optional<std::size_t> find(ConfigMask mask) const {
    if (masks_ == nullptr)
      return mask < size() ? std::optional<std::size_t>(mask) : std::nullopt;
    const auto target = static_cast<double>(mask);
    std::size_t lo = 0;
    std::size_t hi = size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const double at = (*masks_)[mid].as_number();
      if (at == target) return mid;
      if (at < target) lo = mid + 1; else hi = mid;
    }
    return std::nullopt;
  }

  /// The mean time of the row holding `mask`, or nullopt.
  std::optional<double> mean_time_of(ConfigMask mask) const {
    const auto row = find(mask);
    return row ? std::optional<double>(mean_time_[*row]) : std::nullopt;
  }

 private:
  DoubleColumn mean_time_;
  const JsonArray* masks_;
};

/// Decode the configuration rows of `rows` (with their other columns in
/// `columns`) into `kept`; with no `kept` every row is checked and
/// dropped. A speedup is checked once per distinct time.
void configs_from_json(const StoredRows& rows, const Json& columns,
                       double baseline, std::size_t space,
                       std::vector<ConfigResult>* kept) {
  for (const double time : rows.mean_time().values())
    check_speedup(baseline, time, "mean_time");
  ConfigMask previous = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigMask mask = rows.mask(i, space);
    if (i > 0 && mask <= previous)
      bad_field("mask", "is not strictly increasing");
    previous = mask;
  }
  std::optional<DoubleColumn> stddev_time;
  if (columns.as_object().contains("stddev_time")) {
    stddev_time.emplace(columns, "stddev_time", RowCount{rows.size()});
    const std::vector<double>& values = stddev_time->values();
    if (values.empty() || (values.size() == 1 && same(values[0], 0.0)))
      bad_field("stddev_time", "is stored though every value is +0.0");
  }
  if (kept == nullptr) return;
  kept->resize(rows.size());
  rows.mean_time().for_each([&](std::size_t i, double time) {
    (*kept)[i] = {rows.mask(i, space), time, 0.0};
  });
  if (stddev_time)
    stddev_time->for_each([&](std::size_t i, double stddev) {
      (*kept)[i].stddev_time = stddev;
    });
}

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
    o["observed_time"] = double_column(steps, &TuningStep::observed_time);
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
  std::optional<DoubleColumn> observed_time;
  if (columns.as_object().contains("observed_time")) {
    observed_time.emplace(columns, "observed_time", RowCount{steps});
    for (const double time : observed_time->values())
      check_speedup(baseline, time, "observed_time");
  }
  bool counts = true;
  int previous = 0;
  bool derivable = true;

  if (kept != nullptr) kept->resize(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    TuningStep s;
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
    const auto row = rows.find(s.mask);
    if (observed_time) {
      s.observed_time = (*observed_time)[i];
      derivable = derivable && row && same(rows.mean_time()[*row],
                                           s.observed_time);
    } else {
      if (!row)
        bad_field("observed_time",
                  "is left out though a step's mask has no row");
      s.observed_time = rows.mean_time()[*row];
    }
    if (kept != nullptr) (*kept)[i] = s;
  }
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
  const Json& table = json.at("table");
  const StoredRows configs(stored != nullptr ? stored->at("configs") : table,
                           space);
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
  if (stored != nullptr) {
    configs_from_json(StoredRows(table, space), table, out.baseline_time,
                      space, keep ? &out.table : nullptr);
    SweepResult sweep;
    sweep.baseline_time = out.baseline_time;
    sweep.num_groups = out.num_groups;
    sweep.num_tiers = out.num_tiers;
    check_sweep(sweep, out);
    configs_from_json(configs, stored->at("configs"), out.baseline_time,
                      space, keep ? &sweep.configs : nullptr);
    if (keep) out.sweep = std::move(sweep);
  } else {
    configs_from_json(configs, table, out.baseline_time, space,
                      keep ? &out.table : nullptr);
  }
  trajectory_from_columns(json.at("trajectory"), space, out.baseline_time,
                          configs, keep ? &out.trajectory : nullptr);
  return out;
}

}  // namespace hmpt::tuner
