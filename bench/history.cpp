#include "history.h"

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/metrics_registry.h"
#include "util/table.h"

namespace rave::bench {

namespace {

namespace fs = std::filesystem;

/// max_digits10 formatting: equal strings <=> equal double bits (modulo
/// -0.0/NaN, which the deterministic metrics never produce).
std::string FormatExact(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- minimal JSON reader -------------------------------------------------
// Parses exactly the subset the ledger writer emits (objects, arrays,
// strings, numbers, booleans, null). Hand-rolled because the repo has no
// JSON dependency and the records are single-line and small.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Get(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double Num(const std::string& key, double fallback) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
  }
  std::string Text(const std::string& key) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->type == Type::kString ? v->str : std::string();
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default: return ParseNumber(out);
    }
  }
  bool ParseString(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
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
          if (pos_ + 4 > text_.size()) return false;
          const unsigned long cp =
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16);
          pos_ += 4;
          // The writer only escapes control characters; anything else
          // degrades to '?' rather than full UTF-16 handling.
          out->push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return false;
    out->type = JsonValue::Type::kNumber;
    return true;
  }
  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      SkipSpace();
      if (!ParseValue(&v)) return false;
      out->array.push_back(std::move(v));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || !ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipSpace();
      JsonValue v;
      if (!ParseValue(&v)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool RecordFromJson(const JsonValue& v, HistoryRecord* out) {
  if (v.type != JsonValue::Type::kObject) return false;
  out->schema = static_cast<int>(v.Num("schema", 0));
  if (out->schema != 1) return false;
  out->git_rev = v.Text("git");
  out->fingerprint = static_cast<uint64_t>(v.Num("fingerprint", 0));
  out->blob_version = static_cast<uint32_t>(v.Num("blob", 0));
  out->options = v.Text("options");
  out->jobs = static_cast<int>(v.Num("jobs", 0));
  out->duration_s = v.Num("duration_s", 0.0);
  out->only = v.Text("only");
  out->wall_ms = v.Num("wall_ms", 0.0);
  out->sessions_per_s = v.Num("sessions_per_s", 0.0);
  out->cache_hit_rate = v.Num("cache_hit_rate", 0.0);
  const JsonValue* benches = v.Get("benches");
  if (benches == nullptr || benches->type != JsonValue::Type::kArray) {
    return false;
  }
  for (const JsonValue& b : benches->array) {
    if (b.type != JsonValue::Type::kObject) return false;
    HistoryBench hb;
    hb.name = b.Text("name");
    if (hb.name.empty()) return false;
    hb.exit_code = static_cast<int>(b.Num("exit", 0));
    hb.wall_ms = b.Num("wall_ms", 0.0);
    if (const JsonValue* q = b.Get("q");
        q != nullptr && q->type == JsonValue::Type::kObject) {
      for (const auto& [key, val] : q->object) {
        if (val.type != JsonValue::Type::kString) return false;
        hb.quality.emplace_back(key, val.str);
      }
    }
    out->benches.push_back(std::move(hb));
  }
  return true;
}

const std::string* FindQuality(const HistoryBench& bench,
                               const std::string& key) {
  for (const auto& [k, v] : bench.quality) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> QualityPairs(
    const obs::RegistrySnapshot& snapshot) {
  using obs::MetricKind;
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const obs::MetricSnapshot& m : snapshot.metrics) {
    if (m.name.rfind("wall.", 0) == 0 || m.name.rfind("alloc.", 0) == 0) {
      continue;  // host-side; quarantined out of the quality set
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        pairs.emplace_back(m.name, std::to_string(m.counter));
        break;
      case MetricKind::kGauge:
        pairs.emplace_back(m.name, FormatExact(m.gauge));
        break;
      case MetricKind::kSketch:
        pairs.emplace_back(m.name + ".count",
                           std::to_string(m.sketch.count()));
        pairs.emplace_back(m.name + ".sum", FormatExact(m.sketch.sum()));
        pairs.emplace_back(m.name + ".min", FormatExact(m.sketch.min()));
        pairs.emplace_back(m.name + ".max", FormatExact(m.sketch.max()));
        pairs.emplace_back(m.name + ".p50", FormatExact(m.Percentile(0.50)));
        pairs.emplace_back(m.name + ".p95", FormatExact(m.Percentile(0.95)));
        pairs.emplace_back(m.name + ".p99", FormatExact(m.Percentile(0.99)));
        break;
    }
  }
  return pairs;
}

std::string GitRevOrUnknown(const std::string& start_dir) {
  if (const char* env = std::getenv("RAVE_GIT_REV");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  auto read_first_line = [](const fs::path& p) -> std::string {
    std::ifstream in(p);
    std::string line;
    if (!in || !std::getline(in, line)) return {};
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
      line.pop_back();
    }
    return line;
  };
  std::error_code ec;
  fs::path dir = fs::absolute(start_dir.empty() ? "." : start_dir, ec);
  for (; !dir.empty(); dir = dir.parent_path()) {
    const fs::path head = dir / ".git" / "HEAD";
    if (!fs::exists(head, ec)) {
      if (dir == dir.parent_path()) break;
      continue;
    }
    std::string line = read_first_line(head);
    if (line.rfind("ref: ", 0) == 0) {
      const std::string resolved =
          read_first_line(dir / ".git" / line.substr(5));
      return resolved.empty() ? "unknown" : resolved;
    }
    return line.empty() ? "unknown" : line;
  }
  return "unknown";
}

bool AppendHistory(const std::string& path, const HistoryRecord& r) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return false;
  out << "{\"schema\": " << r.schema << ", \"git\": \"" << JsonEscape(r.git_rev)
      << "\", \"fingerprint\": " << r.fingerprint
      << ", \"blob\": " << r.blob_version << ", \"options\": \""
      << JsonEscape(r.options) << "\", \"jobs\": " << r.jobs
      << ", \"duration_s\": " << FormatExact(r.duration_s) << ", \"only\": \""
      << JsonEscape(r.only) << "\", \"benches\": [";
  for (size_t i = 0; i < r.benches.size(); ++i) {
    const HistoryBench& b = r.benches[i];
    out << (i > 0 ? ", " : "") << "{\"name\": \"" << JsonEscape(b.name)
        << "\", \"exit\": " << b.exit_code << ", \"wall_ms\": "
        << FormatExact(b.wall_ms) << ", \"q\": {";
    for (size_t j = 0; j < b.quality.size(); ++j) {
      out << (j > 0 ? ", " : "") << '"' << JsonEscape(b.quality[j].first)
          << "\": \"" << JsonEscape(b.quality[j].second) << '"';
    }
    out << "}}";
  }
  out << "], \"wall_ms\": " << FormatExact(r.wall_ms)
      << ", \"sessions_per_s\": " << FormatExact(r.sessions_per_s)
      << ", \"cache_hit_rate\": " << FormatExact(r.cache_hit_rate) << "}\n";
  return static_cast<bool>(out);
}

std::vector<HistoryRecord> LoadHistory(const std::string& path) {
  std::vector<HistoryRecord> records;
  std::ifstream in(path, std::ios::binary);
  if (!in) return records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    JsonValue v;
    if (!JsonParser(line).Parse(&v)) continue;
    HistoryRecord record;
    if (RecordFromJson(v, &record)) records.push_back(std::move(record));
  }
  return records;
}

std::string CompatKey(const HistoryRecord& r) {
  std::ostringstream os;
  os << r.schema << '|' << r.fingerprint << '|' << r.blob_version << '|'
     << r.options << '|' << FormatExact(r.duration_s) << '|' << r.only;
  return os.str();
}

bool CompareRecords(const HistoryRecord& baseline, const HistoryRecord& current,
                    double wall_band, std::ostream& out) {
  bool regressed = false;
  Table table({"bench", "quality", "wall", "note"});
  if (wall_band < 1.0) wall_band = 1.0;

  auto wall_cell = [&](double base_ms, double cur_ms, std::string* note) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(0) << base_ms << "->" << cur_ms
       << " ms";
    if (base_ms > 0.0) {
      const double ratio = cur_ms / base_ms;
      os << " (x" << std::setprecision(2) << ratio << ")";
      if (ratio > wall_band && note->empty()) {
        *note = "slow (wall is noise-banded, not gating)";
      }
    }
    return os.str();
  };

  for (const HistoryBench& base : baseline.benches) {
    const HistoryBench* cur = nullptr;
    for (const HistoryBench& c : current.benches) {
      if (c.name == base.name) {
        cur = &c;
        break;
      }
    }
    std::string quality = "ok";
    std::string wall;
    std::string note;
    if (cur == nullptr) {
      quality = "REGRESSED";
      note = "bench missing from current run";
      regressed = true;
    } else {
      if (cur->exit_code != 0 && base.exit_code == 0) {
        quality = "REGRESSED";
        note = "exit 0 -> " + std::to_string(cur->exit_code);
        regressed = true;
      }
      size_t drifts = 0;
      for (const auto& [key, base_value] : base.quality) {
        const std::string* cur_value = FindQuality(*cur, key);
        if (cur_value != nullptr && *cur_value == base_value) continue;
        ++drifts;
        if (quality == "ok") {
          quality = "REGRESSED";
          note = cur_value == nullptr
                     ? key + " missing"
                     : key + " " + base_value + " -> " + *cur_value;
          regressed = true;
        }
      }
      if (drifts > 1) {
        note += " (+" + std::to_string(drifts - 1) + " more)";
      }
      wall = wall_cell(base.wall_ms, cur->wall_ms, &note);
    }
    table.AddRow().Cell(base.name).Cell(quality).Cell(wall).Cell(note);
  }
  for (const HistoryBench& cur : current.benches) {
    bool in_baseline = false;
    for (const HistoryBench& base : baseline.benches) {
      if (base.name == cur.name) {
        in_baseline = true;
        break;
      }
    }
    if (!in_baseline) {
      table.AddRow().Cell(cur.name).Cell("new").Cell("").Cell(
          "not in baseline (not gating)");
    }
  }

  out << "regression sentinel: current run vs baseline (git "
      << (baseline.git_rev.empty() ? "unknown" : baseline.git_rev) << ")\n";
  table.Print(out);
  std::string total_note;
  out << "total wall: " << wall_cell(baseline.wall_ms, current.wall_ms,
                                     &total_note)
      << (total_note.empty() ? "" : " [" + total_note + "]") << '\n'
      << "verdict: "
      << (regressed ? "QUALITY REGRESSION (deterministic fields drifted)"
                    : "clean (quality byte-identical; wall fields informational)")
      << '\n';
  return regressed;
}

}  // namespace rave::bench
