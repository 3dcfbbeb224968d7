#include "sim/report.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <sstream>
#include <utility>

#include "mathkit/fnv.hpp"

#ifndef ICOIL_GIT_DESCRIBE
#define ICOIL_GIT_DESCRIBE "unknown"
#endif

namespace icoil::sim {

namespace {

// ------------------------------------------------------------- JSON writer

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Comma-managed appender for one JSON object/array scope.
class JsonScope {
 public:
  JsonScope(std::string& out, char open, char close)
      : out_(out), close_(close) {
    out_.push_back(open);
  }
  ~JsonScope() { out_.push_back(close_); }

  std::string& field(const std::string& key) {
    sep();
    out_ += '"';
    out_ += json_escape(key);
    out_ += "\":";
    return out_;
  }
  std::string& element() {
    sep();
    return out_;
  }

 private:
  void sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  std::string& out_;
  char close_;
  bool first_ = true;
};

void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

// ------------------------------------------------------------- JSON parser
//
// Minimal recursive-descent JSON reader — just enough to load the documents
// this file writes (objects, arrays, strings with standard escapes, finite
// numbers, booleans, null). Nesting is capped well above the few levels a
// report uses, so hostile input fails cleanly instead of exhausting the
// stack.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue* out) {
    pos_ = 0;
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content");
    return true;
  }

 private:
  bool fail(const std::string& what) {
    if (error_ && error_->empty())
      *error_ = "JSON parse error at offset " + std::to_string(pos_) + ": " +
                what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth)
        return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                    " levels");
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return parse_string(&out->string);
    }
    if (c == 't' || c == 'f' || c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(JsonValue* out) {
    const auto match = [&](const char* kw, JsonValue::Kind kind, bool value) {
      const std::size_t n = std::char_traits<char>::length(kw);
      if (text_.compare(pos_, n, kw) != 0) return false;
      pos_ += n;
      out->kind = kind;
      out->boolean = value;
      return true;
    };
    if (match("true", JsonValue::Kind::kBool, true) ||
        match("false", JsonValue::Kind::kBool, false) ||
        match("null", JsonValue::Kind::kNull, false))
      return true;
    return fail("unknown keyword");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    // strtod must consume the WHOLE scanned token: a prefix parse would
    // silently accept merge-mangled numbers like "1..0" as 1.0.
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    if (!std::isfinite(out->number)) return fail("number out of range");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs unsupported; our
          // writer only emits \u00XX for control characters).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue* out) {
    if (!consume('[')) return fail("expected '['");
    out->kind = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue element;
      if (!parse_value(&element)) return false;
      out->array.push_back(std::move(element));
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue* out) {
    if (!consume('{')) return fail("expected '{'");
    out->kind = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      skip_ws();
      if (!parse_string(&key)) return false;
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 32;
  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

// Tolerant field readers for meta and cells: missing/mistyped keys keep
// the default.
double get_number(const JsonValue& obj, const std::string& key,
                  double fallback = 0.0) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number
                                                             : fallback;
}

int get_int(const JsonValue& obj, const std::string& key, int fallback = 0) {
  const double v = get_number(obj, key, static_cast<double>(fallback));
  // Out-of-range doubles would be UB to cast; treat as absent.
  if (!(v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max()))
    return fallback;
  return static_cast<int>(std::lround(v));
}

std::string get_string(const JsonValue& obj, const std::string& key,
                       const std::string& fallback = {}) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string
                                                             : fallback;
}

bool get_bool(const JsonValue& obj, const std::string& key,
              bool fallback = false) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kBool ? v->boolean
                                                           : fallback;
}

/// uint64 values travel as strings (a JSON number is a double and would
/// corrupt values >= 2^53); `base` is 10 or 16.
std::uint64_t get_u64(const JsonValue& obj, const std::string& key, int base) {
  return std::strtoull(get_string(obj, key).c_str(), nullptr, base);
}

void write_cell(std::string& out, const CellRecord& cell) {
  JsonScope c(out, '{', '}');
  append_string(c.field("label"), cell.label);
  append_string(c.field("method"), cell.method);
  append_string(c.field("generator"), cell.generator);
  c.field("episodes") += std::to_string(cell.episodes);
  c.field("successes") += std::to_string(cell.successes);
  c.field("collisions") += std::to_string(cell.collisions);
  c.field("timeouts") += std::to_string(cell.timeouts);
  c.field("budget_exceeded") += std::to_string(cell.budget_exceeded);
  c.field("deadline_hits") += std::to_string(cell.deadline_hits);
  c.field("success_ratio") += fmt_double(cell.success_ratio);
  c.field("park_time_mean") += fmt_double(cell.park_time_mean);
  c.field("park_time_min") += fmt_double(cell.park_time_min);
  c.field("park_time_max") += fmt_double(cell.park_time_max);
  c.field("park_time_stddev") += fmt_double(cell.park_time_stddev);
  c.field("il_fraction_mean") += fmt_double(cell.il_fraction_mean);
  c.field("min_clearance_mean") += fmt_double(cell.min_clearance_mean);
  if (!cell.episode_records.empty()) {
    JsonScope eps(c.field("episode_records"), '[', ']');
    for (const EpisodeRecord& ep : cell.episode_records) {
      JsonScope e(eps.element(), '{', '}');
      append_string(e.field("outcome"), ep.outcome);
      e.field("park_time") += fmt_double(ep.park_time);
      e.field("min_clearance") += fmt_double(ep.min_clearance);
      e.field("il_fraction") += fmt_double(ep.il_fraction);
      e.field("mode_switches") += std::to_string(ep.mode_switches);
      e.field("deadline_hits") += std::to_string(ep.deadline_hits);
    }
  }
}

CellRecord read_cell(const JsonValue& v) {
  CellRecord cell;
  cell.label = get_string(v, "label");
  cell.method = get_string(v, "method");
  cell.generator = get_string(v, "generator");
  cell.episodes = get_int(v, "episodes");
  cell.successes = get_int(v, "successes");
  cell.collisions = get_int(v, "collisions");
  cell.timeouts = get_int(v, "timeouts");
  cell.budget_exceeded = get_int(v, "budget_exceeded");
  cell.deadline_hits = get_int(v, "deadline_hits");
  cell.success_ratio = get_number(v, "success_ratio");
  cell.park_time_mean = get_number(v, "park_time_mean");
  cell.park_time_min = get_number(v, "park_time_min");
  cell.park_time_max = get_number(v, "park_time_max");
  cell.park_time_stddev = get_number(v, "park_time_stddev");
  cell.il_fraction_mean = get_number(v, "il_fraction_mean");
  cell.min_clearance_mean = get_number(v, "min_clearance_mean");
  if (const JsonValue* eps = v.find("episode_records");
      eps != nullptr && eps->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& e : eps->array) {
      EpisodeRecord ep;
      ep.outcome = get_string(e, "outcome");
      ep.park_time = get_number(e, "park_time");
      ep.min_clearance = get_number(e, "min_clearance");
      ep.il_fraction = get_number(e, "il_fraction");
      ep.mode_switches = get_int(e, "mode_switches");
      ep.deadline_hits = get_int(e, "deadline_hits");
      cell.episode_records.push_back(std::move(ep));
    }
  }
  return cell;
}

void write_names(std::string& out, const std::vector<std::string>& names) {
  JsonScope a(out, '[', ']');
  for (const std::string& n : names) append_string(a.element(), n);
}

/// Rows are objects holding every key column (as strings) and every value
/// column (as numbers), so a row reads on its own: {"method":"co",...}.
void write_table(std::string& out, const MetricsTable& table) {
  JsonScope t(out, '{', '}');
  append_string(t.field("name"), table.name);
  write_names(t.field("keys"), table.key_columns);
  write_names(t.field("columns"), table.value_columns);
  JsonScope rows(t.field("rows"), '[', ']');
  for (const MetricsTable::Row& row : table.rows) {
    JsonScope r(rows.element(), '{', '}');
    for (std::size_t i = 0; i < table.key_columns.size(); ++i)
      append_string(r.field(table.key_columns[i]), row.keys.at(i));
    for (std::size_t i = 0; i < table.value_columns.size(); ++i)
      r.field(table.value_columns[i]) += fmt_double(row.values.at(i));
  }
}

bool read_names(const JsonValue* v, std::vector<std::string>* out) {
  if (v == nullptr || v->kind != JsonValue::Kind::kArray) return false;
  for (const JsonValue& e : v->array) {
    if (e.kind != JsonValue::Kind::kString) return false;
    out->push_back(e.string);
  }
  return true;
}

/// Strict: every row must carry exactly the header's fields, keys as
/// strings and values as numbers, with no two rows sharing keys.
bool read_table(const JsonValue& v, MetricsTable* out, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = what;
    return false;
  };
  if (v.kind != JsonValue::Kind::kObject)
    return fail("tables[] entry is not an object");
  const JsonValue* name = v.find("name");
  if (name == nullptr || name->kind != JsonValue::Kind::kString)
    return fail("tables[] entry without a string name");
  const std::string id = "table \"" + name->string + "\"";
  std::vector<std::string> keys, columns;
  if (!read_names(v.find("keys"), &keys) ||
      !read_names(v.find("columns"), &columns))
    return fail(id + ": keys and columns must be arrays of strings");
  const JsonValue* rows = v.find("rows");
  if (rows == nullptr || rows->kind != JsonValue::Kind::kArray)
    return fail(id + ": rows must be an array");
  std::string where = id;
  try {
    MetricsTable table(name->string, keys, columns);
    for (std::size_t r = 0; r < rows->array.size(); ++r) {
      const JsonValue& row = rows->array[r];
      where = id + " row " + std::to_string(r);
      if (row.kind != JsonValue::Kind::kObject ||
          row.object.size() != keys.size() + columns.size())
        return fail(where + ": fields differ from the table header");
      std::vector<std::string> row_keys;
      std::vector<double> row_values;
      for (const std::string& k : keys) {
        const JsonValue* f = row.find(k);
        if (f == nullptr || f->kind != JsonValue::Kind::kString)
          return fail(where + ": key \"" + k + "\" missing or not a string");
        row_keys.push_back(f->string);
      }
      for (const std::string& c : columns) {
        const JsonValue* f = row.find(c);
        if (f == nullptr || f->kind != JsonValue::Kind::kNumber)
          return fail(where + ": column \"" + c + "\" missing or not a number");
        row_values.push_back(f->number);
      }
      table.add_row(std::move(row_keys), std::move(row_values));
    }
    *out = std::move(table);
    return true;
  } catch (const std::invalid_argument& e) {
    return fail(where + ": " + e.what());
  }
}

std::string join_keys(const std::vector<std::string>& keys) {
  std::string out;
  for (const std::string& k : keys) out += (out.empty() ? "" : " / ") + k;
  return out;
}

CellRecord cell_from_aggregate(const SuiteCell& cell, const Aggregate& agg) {
  CellRecord rec;
  rec.label = agg.level;
  rec.method = agg.method;
  rec.generator = cell.generator;
  rec.episodes = agg.episodes;
  rec.successes = agg.successes;
  rec.collisions = agg.collisions;
  rec.timeouts = agg.timeouts;
  rec.budget_exceeded = agg.budget_exceeded;
  rec.deadline_hits = agg.deadline_hits;
  rec.success_ratio = agg.success_ratio();
  rec.park_time_mean = agg.park_time.mean();
  rec.park_time_min = agg.park_time.min();
  rec.park_time_max = agg.park_time.max();
  rec.park_time_stddev = agg.park_time.stddev();
  rec.il_fraction_mean = agg.il_fraction.mean();
  rec.min_clearance_mean = agg.min_clearance.mean();
  return rec;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
          out.push_back(c);
        }
    }
  }
  return out;
}

std::uint64_t config_fingerprint(const EvalConfig& config) {
  math::Fnv1a h;
  h.add_int(config.episodes);
  h.add_int(static_cast<std::int64_t>(config.base_seed));
  h.add_double(config.sim.dt);
  h.add_double(config.sim.goal_pos_tol);
  h.add_double(config.sim.goal_heading_tol);
  h.add_double(config.sim.goal_speed_tol);
  // A frame deadline changes which commands controllers emit, so two runs
  // with different deadlines are not outcome-comparable.
  h.add_double(config.sim.frame_deadline_ms);
  return h.value();
}

std::string build_git_describe() { return ICOIL_GIT_DESCRIBE; }

MetricsTable::MetricsTable(std::string table_name,
                           std::vector<std::string> keys,
                           std::vector<std::string> values)
    : name(std::move(table_name)),
      key_columns(std::move(keys)),
      value_columns(std::move(values)) {
  if (name.empty()) throw std::invalid_argument("table name is empty");
  std::vector<std::string> all = key_columns;
  all.insert(all.end(), value_columns.begin(), value_columns.end());
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      if (all[i] == all[j])
        throw std::invalid_argument("column \"" + all[i] + "\" named twice");
}

void MetricsTable::add_row(std::vector<std::string> keys,
                           std::vector<double> values) {
  if (keys.size() != key_columns.size() ||
      values.size() != value_columns.size())
    throw std::invalid_argument("row width differs from the table header");
  for (std::size_t i = 0; i < values.size(); ++i)
    if (!std::isfinite(values[i]))
      throw std::invalid_argument("column \"" + value_columns[i] +
                                  "\" is not finite");
  if (find(keys) != nullptr)
    throw std::invalid_argument("duplicate keys " + join_keys(keys));
  rows.push_back({std::move(keys), std::move(values)});
}

const MetricsTable::Row* MetricsTable::find(
    const std::vector<std::string>& keys) const {
  for (const Row& row : rows)
    if (row.keys == keys) return &row;
  return nullptr;
}

int MetricsTable::value_index(const std::string& column) const {
  for (std::size_t i = 0; i < value_columns.size(); ++i)
    if (value_columns[i] == column) return static_cast<int>(i);
  return -1;
}

const MetricsTable* RunReport::table(const std::string& table_name) const {
  for (const MetricsTable& t : tables)
    if (t.name == table_name) return &t;
  return nullptr;
}

void RunReport::add_cells(const std::vector<SuiteCellResult>& results) {
  for (const SuiteCellResult& r : results)
    cells.push_back(cell_from_aggregate(r.cell, r.aggregate));
}

void RunReport::add_cells_detailed(
    const std::vector<SuiteCellResult>& results,
    const std::vector<SuiteCellEpisodes>& detailed) {
  if (results.size() != detailed.size())
    throw std::invalid_argument(
        "RunReport::add_cells_detailed: " + std::to_string(results.size()) +
        " aggregates for " + std::to_string(detailed.size()) +
        " detailed cells — both must come from the same suite run");
  for (std::size_t c = 0; c < detailed.size(); ++c) {
    const SuiteCellEpisodes& cell = detailed[c];
    CellRecord rec = cell_from_aggregate(results[c].cell, results[c].aggregate);
    rec.episode_records.reserve(cell.episodes.size());
    for (const EpisodeResult& ep : cell.episodes) {
      EpisodeRecord r;
      r.outcome = to_string(ep.outcome);
      r.park_time = ep.park_time;
      r.min_clearance = ep.min_clearance;
      r.il_fraction = ep.il_fraction;
      r.mode_switches = ep.mode_switches;
      r.deadline_hits = ep.deadline_hits;
      rec.episode_records.push_back(std::move(r));
    }
    cells.push_back(std::move(rec));
  }
}

std::string RunReport::to_json() const {
  std::string out;
  {
    JsonScope doc(out, '{', '}');
    doc.field("schema_version") += std::to_string(meta.schema_version);
    {
      JsonScope m(doc.field("meta"), '{', '}');
      append_string(m.field("suite"), meta.suite);
      append_string(m.field("git_describe"), meta.git_describe);
      m.field("threads") += std::to_string(meta.threads);
      m.field("episodes_per_cell") += std::to_string(meta.episodes_per_cell);
      // uint64 values travel as strings: a JSON number is a double on load
      // and would corrupt seeds >= 2^53.
      append_string(m.field("base_seed"), std::to_string(meta.base_seed));
      append_string(m.field("config_fingerprint"),
                    fmt_hex64(meta.config_fingerprint));
      m.field("aborted") += meta.aborted ? "true" : "false";
    }
    {
      JsonScope cs(doc.field("cells"), '[', ']');
      for (const CellRecord& cell : cells) write_cell(cs.element(), cell);
    }
    JsonScope ts(doc.field("tables"), '[', ']');
    for (const MetricsTable& t : tables) write_table(ts.element(), t);
  }
  out.push_back('\n');
  return out;
}

bool RunReport::save(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << to_json();
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool RunReport::parse(const std::string& json, RunReport* out,
                      std::string* error) {
  JsonValue root;
  JsonParser parser(json, error);
  if (!parser.parse(&root)) return false;
  if (root.kind != JsonValue::Kind::kObject) {
    if (error) *error = "report root is not a JSON object";
    return false;
  }
  RunReport report;
  report.meta.schema_version = get_int(root, "schema_version", -1);
  if (report.meta.schema_version != kRunReportSchemaVersion) {
    if (error)
      *error = "unsupported schema_version " +
               std::to_string(report.meta.schema_version) +
               " (this build reads only " +
               std::to_string(kRunReportSchemaVersion) +
               "); re-record the report with this build";
    return false;
  }
  if (const JsonValue* m = root.find("meta");
      m != nullptr && m->kind == JsonValue::Kind::kObject) {
    report.meta.suite = get_string(*m, "suite");
    report.meta.git_describe = get_string(*m, "git_describe");
    report.meta.threads = get_int(*m, "threads");
    report.meta.episodes_per_cell = get_int(*m, "episodes_per_cell");
    report.meta.base_seed = get_u64(*m, "base_seed", 10);
    report.meta.config_fingerprint = get_u64(*m, "config_fingerprint", 16);
    report.meta.aborted = get_bool(*m, "aborted");
  }
  if (const JsonValue* ts = root.find("tables"); ts != nullptr) {
    if (ts->kind != JsonValue::Kind::kArray) {
      if (error) *error = "tables is not an array";
      return false;
    }
    for (const JsonValue& t : ts->array) {
      MetricsTable table;
      if (!read_table(t, &table, error)) return false;
      if (report.table(table.name) != nullptr) {
        if (error) *error = "table \"" + table.name + "\" appears twice";
        return false;
      }
      report.tables.push_back(std::move(table));
    }
  }
  if (const JsonValue* cs = root.find("cells");
      cs != nullptr && cs->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& c : cs->array) {
      if (c.kind != JsonValue::Kind::kObject) {
        if (error) *error = "cells[] entry is not an object";
        return false;
      }
      report.cells.push_back(read_cell(c));
    }
  }
  *out = std::move(report);
  return true;
}

bool RunReport::load(const std::string& path, RunReport* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str(), out, error);
}

std::string BaselineVerdict::summary() const {
  std::ostringstream out;
  if (ok) {
    out << "baseline check OK";
  } else {
    out << "baseline check FAILED (" << failures.size() << " regression"
        << (failures.size() == 1 ? "" : "s") << ")";
  }
  for (const std::string& f : failures) out << "\n  FAIL  " << f;
  for (const std::string& n : notes) out << "\n  note  " << n;
  return out.str();
}

BaselineVerdict compare_to_baseline(const RunReport& current,
                                    const RunReport& baseline,
                                    const BaselineTolerance& tolerance) {
  BaselineVerdict verdict;
  if (current.meta.config_fingerprint != baseline.meta.config_fingerprint)
    verdict.notes.push_back(
        "config fingerprints differ — the baseline run used different eval "
        "settings; numbers may legitimately differ");

  const auto find_cell = [](const std::vector<CellRecord>& cells,
                            const CellRecord& want) -> const CellRecord* {
    for (const CellRecord& c : cells)
      if (c.method == want.method && c.label == want.label) return &c;
    return nullptr;
  };

  for (const CellRecord& base : baseline.cells) {
    const CellRecord* cur = find_cell(current.cells, base);
    const std::string id = base.method + " / " + base.label;
    if (cur == nullptr) {
      verdict.failures.push_back(id + ": cell missing from current run");
      continue;
    }
    const double drop = base.success_ratio - cur->success_ratio;
    if (drop > tolerance.success_drop + 1e-12) {
      std::ostringstream why;
      why << id << ": success ratio " << cur->success_ratio << " vs baseline "
          << base.success_ratio << " (drop " << drop << " > tol "
          << tolerance.success_drop << ")";
      verdict.failures.push_back(why.str());
    }
    // Park time only compares when both runs actually parked: a mean over
    // zero successes is the RunningStats 0.0 placeholder, not a time.
    if (base.successes > 0 && cur->successes > 0 && base.park_time_mean > 0) {
      const double slowdown =
          cur->park_time_mean / base.park_time_mean - 1.0;
      if (slowdown > tolerance.park_time_slowdown + 1e-12) {
        std::ostringstream why;
        why << id << ": park time mean " << cur->park_time_mean
            << " s vs baseline " << base.park_time_mean << " s (+"
            << 100.0 * slowdown << "% > tol "
            << 100.0 * tolerance.park_time_slowdown << "%)";
        verdict.failures.push_back(why.str());
      }
    }
    if (cur->budget_exceeded > base.budget_exceeded)
      verdict.notes.push_back(id + ": budget_exceeded rose to " +
                              std::to_string(cur->budget_exceeded) + " (from " +
                              std::to_string(base.budget_exceeded) + ")");
  }

  for (const CellRecord& cur : current.cells)
    if (find_cell(baseline.cells, cur) == nullptr)
      verdict.failures.push_back(cur.method + " / " + cur.label +
                                 ": cell not in baseline — re-record it");

  for (const MetricsTable& base : baseline.tables) {
    const MetricsTable* cur = current.table(base.name);
    const std::string tid = "table " + base.name;
    if (cur == nullptr) {
      verdict.failures.push_back(tid + ": missing from current run");
      continue;
    }
    if (cur->key_columns != base.key_columns ||
        cur->value_columns != base.value_columns) {
      verdict.failures.push_back(tid +
                                 ": header differs from baseline — re-record it");
      continue;
    }
    std::vector<std::pair<const ColumnGate*, std::size_t>> gates;
    for (const ColumnGate& g : tolerance.gates) {
      if (g.table != base.name) continue;
      const int i = base.value_index(g.column);
      if (i < 0)
        verdict.failures.push_back(tid + ": gated column " + g.column +
                                   " not in table");
      else
        gates.emplace_back(&g, static_cast<std::size_t>(i));
    }
    for (const MetricsTable::Row& b : base.rows) {
      const MetricsTable::Row* c = cur->find(b.keys);
      const std::string id = tid + " / " + join_keys(b.keys);
      if (c == nullptr) {
        verdict.failures.push_back(id + ": row missing from current run");
        continue;
      }
      for (const auto& [g, i] : gates) {
        const double delta = c->values[i] - b.values[i];
        const bool drop = g->kind == ColumnGate::Kind::kMaxDrop;
        const double moved = drop ? -delta : std::abs(delta);
        if (moved <= g->tolerance + 1e-12) continue;
        std::ostringstream why;
        why << id << ": " << g->column << " " << c->values[i]
            << " vs baseline " << b.values[i] << " ("
            << (drop ? "drop " : "|delta| ") << moved << " > tol "
            << g->tolerance << ")";
        verdict.failures.push_back(why.str());
      }
    }
    for (const MetricsTable::Row& c : cur->rows)
      if (base.find(c.keys) == nullptr)
        verdict.failures.push_back(tid + " / " + join_keys(c.keys) +
                                   ": row not in baseline — re-record it");
  }
  for (const MetricsTable& cur : current.tables)
    if (baseline.table(cur.name) == nullptr)
      verdict.failures.push_back("table " + cur.name +
                                 ": not in baseline — re-record it");

  verdict.ok = verdict.failures.empty();
  return verdict;
}

}  // namespace icoil::sim
