// Schema self-check for the BENCH_*.json artifacts CI uploads.
//
// Every bench in this directory emits a flat JSON array of records. This
// driver re-parses those files with a small dependency-free JSON reader
// and fails (exit 1) when a file is syntactically broken, empty, or —
// for the files with a pinned schema — missing a required key in any
// record. It runs in CI right after the bench smokes, so a bench that
// silently starts writing malformed or key-dropping artifacts is caught
// in the same job that produced them, not by a downstream consumer of
// the uploaded artifact.
//
// Usage: bench_schema_check [file.json ...]
//   With no arguments, checks every BENCH_*.json in the current
//   directory (at least one must exist).

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: just enough for the bench artifacts (arrays,
// objects, strings without exotic escapes, numbers, true/false/null).
// Values are not materialized — the checker only needs structure and the
// per-record key sets.
// ---------------------------------------------------------------------------

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  explicit Parser(const std::string& t) : text(t) {}

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool peek_is(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    std::string s;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("truncated escape");
      }
      s.push_back(text[pos++]);
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;  // closing quote
    if (out != nullptr) *out = std::move(s);
    return true;
  }

  bool parse_number() {
    skip_ws();
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      ++pos;
    }
    if (pos == start) return fail("expected number");
    return true;
  }

  bool parse_literal(const char* lit) {
    skip_ws();
    const std::size_t len = std::strlen(lit);
    if (text.compare(pos, len, lit) != 0) return fail("bad literal");
    pos += len;
    return true;
  }

  /// Parse any value; when `keys` is non-null and the value is an object,
  /// collect its top-level key names.
  bool parse_value(std::vector<std::string>* keys) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(keys);
    if (c == '[') return parse_array(nullptr);
    if (c == '"') return parse_string(nullptr);
    if (c == 't') return parse_literal("true");
    if (c == 'f') return parse_literal("false");
    if (c == 'n') return parse_literal("null");
    return parse_number();
  }

  bool parse_object(std::vector<std::string>* keys) {
    if (!consume('{')) return false;
    if (peek_is('}')) return consume('}');
    while (true) {
      std::string key;
      if (!parse_string(&key)) return false;
      if (keys != nullptr) keys->push_back(key);
      if (!consume(':')) return false;
      if (!parse_value(nullptr)) return false;
      if (peek_is(',')) {
        consume(',');
        continue;
      }
      return consume('}');
    }
  }

  /// Parse an array; when `records` is non-null, collect each element
  /// object's key set (non-object elements get an empty key set).
  bool parse_array(std::vector<std::vector<std::string>>* records) {
    if (!consume('[')) return false;
    if (peek_is(']')) return consume(']');
    while (true) {
      std::vector<std::string> keys;
      if (!parse_value(records != nullptr ? &keys : nullptr)) return false;
      if (records != nullptr) records->push_back(std::move(keys));
      if (peek_is(',')) {
        consume(',');
        continue;
      }
      return consume(']');
    }
  }
};

/// Required keys per artifact file name; files not listed here must still
/// parse as a non-empty array of objects.
const std::map<std::string, std::vector<std::string>> kRequiredKeys = {
    {"BENCH_wallclock.json",
     {"bench", "dataset", "partitioner", "threads", "seconds", "speedup",
      "gbps"}},
};

bool check_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "SCHEMA VIOLATION: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  Parser parser(text);
  std::vector<std::vector<std::string>> records;
  if (!parser.parse_array(&records)) {
    std::cerr << "SCHEMA VIOLATION: " << path
              << " is not a JSON array: " << parser.error << "\n";
    return false;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    std::cerr << "SCHEMA VIOLATION: " << path << " has trailing garbage at byte "
              << parser.pos << "\n";
    return false;
  }
  if (records.empty()) {
    std::cerr << "SCHEMA VIOLATION: " << path << " is an empty array\n";
    return false;
  }

  const auto it = kRequiredKeys.find(path.filename().string());
  if (it != kRequiredKeys.end()) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      for (const std::string& key : it->second) {
        if (std::find(records[i].begin(), records[i].end(), key) ==
            records[i].end()) {
          std::cerr << "SCHEMA VIOLATION: " << path << " record " << i
                    << " is missing required key \"" << key << "\"\n";
          return false;
        }
      }
    }
  }
  std::cout << "ok: " << path.filename().string() << " (" << records.size()
            << " records)\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> files;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) files.emplace_back(argv[i]);
  } else {
    for (const auto& entry : std::filesystem::directory_iterator(".")) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
          name.substr(name.size() - 5) == ".json") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::cerr << "SCHEMA VIOLATION: no BENCH_*.json files found in the "
                   "current directory\n";
      return 1;
    }
  }
  bool ok = true;
  for (const auto& f : files) ok = check_file(f) && ok;
  return ok ? 0 : 1;
}
