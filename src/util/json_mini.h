#ifndef STHSL_UTIL_JSON_MINI_H_
#define STHSL_UTIL_JSON_MINI_H_

// Minimal header-only JSON toolkit shared by every layer and by the
// dependency-free tools (`sthsl_trace_check`, `sthsl_report`,
// `sthsl_loadgen`): the one writer every JSON document in the repo goes
// through, plus a recursive-descent parser. Header-only on purpose: the
// validators must stay buildable and trustworthy without linking the
// library they are checking.

#include <cctype>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sthsl::json {

/// Streaming JSON writer with one fixed format: compact (no whitespace),
/// separators placed automatically, doubles in their shortest round-trip
/// form, floats as `%.9g` (which round-trips float32 exactly), and
/// non-finite numbers as `null` (JSON has no NaN or Inf). Every call
/// returns the writer, so members chain:
///
///   JsonWriter json;
///   json.BeginObject().Key("loss").Number(loss).Key("ok").Bool(ok);
///   json.EndObject();
///
/// Calls must nest correctly; the writer does not check structure.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  /// Object member name; the next call writes its value.
  JsonWriter& Key(std::string_view key) {
    String(key);
    out_ += ':';
    comma_ = false;
    return *this;
  }

  /// String value: quote and backslash get their two-character escapes,
  /// control characters their shorthand or \u00XX form.
  JsonWriter& String(std::string_view text) {
    static constexpr char kHex[] = "0123456789abcdef";
    Separate();
    out_ += '"';
    for (char c : text) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out_ += "\\u00";
            out_ += kHex[(c >> 4) & 0xF];
            out_ += kHex[c & 0xF];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
    comma_ = true;
    return *this;
  }

  JsonWriter& Int(std::integral auto value) {
    char buf[24];
    return Raw({buf, std::to_chars(buf, buf + sizeof buf, value).ptr});
  }

  JsonWriter& Number(double value) {
    if (!std::isfinite(value)) return Null();
    char buf[32];
    return Raw({buf, std::to_chars(buf, buf + sizeof buf, value).ptr});
  }

  JsonWriter& Number(float value) {
    if (!std::isfinite(value)) return Null();
    char buf[32];
    return Raw({buf, std::to_chars(buf, buf + sizeof buf, value,
                                   std::chars_format::general, 9)
                         .ptr});
  }

  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }

  /// A complete, already-rendered JSON value, spliced in verbatim.
  JsonWriter& Raw(std::string_view json) {
    Separate();
    out_ += json;
    comma_ = true;
    return *this;
  }

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  void Separate() {
    if (comma_) out_ += ',';
  }
  JsonWriter& Open(char bracket) {
    Separate();
    out_ += bracket;
    comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    comma_ = true;
    return *this;
  }

  std::string out_;
  bool comma_ = false;  // the next key or value needs a leading ','
};

/// `text` as a complete JSON string literal, quotes included.
inline std::string JsonQuote(std::string_view text) {
  return JsonWriter().String(text).str();
}

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  bool Is(Kind k) const { return kind == k; }
  const JsonValue* Find(const std::string& key) const {
    const auto it = members.find(key);
    return it == members.end() ? nullptr : &it->second;
  }
  /// Member lookup constrained to a kind; null when absent or mistyped.
  const JsonValue* FindOfKind(const std::string& key, Kind k) const {
    const JsonValue* value = Find(key);
    return value != nullptr && value->Is(k) ? value : nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : input_(input) {}

  // Parses the whole input as one JSON value; returns false (with `error`
  // set) on any syntax problem or trailing garbage.
  bool Parse(JsonValue* out, std::string* error) {
    error_ = error;
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != input_.size()) return Fail("trailing characters after value");
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      std::ostringstream stream;
      stream << message << " at byte " << pos_;
      *error_ = stream.str();
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char expected) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= input_.size()) return Fail("unexpected end of input");
    const char c = input_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->text);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  bool ParseKeyword(JsonValue* out) {
    static const struct {
      const char* word;
      JsonValue::Kind kind;
      bool boolean;
    } kKeywords[] = {{"true", JsonValue::Kind::kBool, true},
                     {"false", JsonValue::Kind::kBool, false},
                     {"null", JsonValue::Kind::kNull, false}};
    for (const auto& keyword : kKeywords) {
      const size_t len = std::strlen(keyword.word);
      if (input_.compare(pos_, len, keyword.word) == 0) {
        out->kind = keyword.kind;
        out->boolean = keyword.boolean;
        pos_ += len;
        return true;
      }
    }
    return Fail("invalid keyword");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < input_.size() && input_[pos_] == '-') ++pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '.' || input_[pos_] == 'e' ||
            input_[pos_] == 'E' || input_[pos_] == '+' ||
            input_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    char* end = nullptr;
    const std::string token = input_.substr(start, pos_ - start);
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (pos_ < input_.size()) {
      const char c = input_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= input_.size()) break;
      const char esc = input_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          const char* digits = input_.data() + pos_;
          if (pos_ + 4 > input_.size() ||
              std::from_chars(digits, digits + 4, code, 16).ptr !=
                  digits + 4) {
            return Fail("invalid \\u escape");
          }
          pos_ += 4;
          AppendUtf8(code, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
    return Fail("unterminated string");
  }

  // Encodes one \u code unit as UTF-8. Surrogate halves are encoded on
  // their own rather than paired; nothing the repo writes produces them.
  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return Fail("expected '['");
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!ParseValue(&item)) return false;
      out->items.push_back(std::move(item));
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return Fail("expected '{'");
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (Consume('}')) return true;
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->members[key] = std::move(value);
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}' in object");
    }
  }

  const std::string& input_;
  size_t pos_ = 0;
  std::string* error_ = nullptr;
};

}  // namespace sthsl::json

#endif  // STHSL_UTIL_JSON_MINI_H_
