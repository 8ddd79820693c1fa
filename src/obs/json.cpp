#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "common/check.hpp"

namespace chc::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after value");
    return true;
  }

 private:
  bool fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return object(out);
      case '[':
        return array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.text);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out.type = JsonValue::Type::kNull;
        return true;
      default:
        return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !string(key)) {
        return fail("expected object key");
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.fields.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(v)) return false;
      out.items.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("bad escape");
        const char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + i];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= h - '0';
              else if (h >= 'a' && h <= 'f') cp |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') cp |= h - 'A' + 10;
              else return fail("bad \\u escape digit");
            }
            pos_ += 4;
            // The tracer only ever escapes control characters, so only the
            // one-byte range needs decoding.
            if (cp >= 0x80) return fail("non-ASCII \\u escape unsupported");
            out.push_back(static_cast<char>(cp));
            break;
          }
          default:
            return fail("unknown escape");
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    out.type = JsonValue::Type::kNumber;
    out.text = std::string(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(out.text.c_str(), &end);
    if (end != out.text.c_str() + out.text.size()) return fail("bad number");
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue{};
  return Parser(text, error).parse(out);
}

void json_append_double(std::string& out, double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  CHC_INTERNAL(ec == std::errc(), "double formatting failed");
  out.append(buf, ptr);
}

void json_append_string(std::string& out, std::string_view s) {
  out.push_back('"');
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace chc::obs
