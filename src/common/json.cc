#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace crayfish {

namespace {

void AppendNumber(std::string* out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out->append(buf);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out->append(buf);
}

/// Recursive-descent JSON parser over a raw character range.
class Parser {
 public:
  Parser(const char* begin, const char* end) : p_(begin), end_(end) {}

  StatusOr<JsonValue> ParseDocument() {
    CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWhitespace();
    if (p_ != end_) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return v;
  }

 private:
  void SkipWhitespace() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                          *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (p_ == end_) return Status::InvalidArgument("unexpected end of JSON");
    switch (*p_) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        CRAYFISH_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        return ParseLiteral("true", JsonValue(true));
      case 'f':
        return ParseLiteral("false", JsonValue(false));
      case 'n':
        return ParseLiteral("null", JsonValue());
      default:
        return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseLiteral(const char* lit, JsonValue value) {
    const size_t len = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < len ||
        std::strncmp(p_, lit, len) != 0) {
      return Status::InvalidArgument(std::string("invalid literal, expected ") +
                                     lit);
    }
    p_ += len;
    return value;
  }

  StatusOr<JsonValue> ParseNumber() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool any = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      ++p_;
      any = true;
    }
    if (!any) return Status::InvalidArgument("invalid number");
    const std::string text(start, p_);
    char* parse_end = nullptr;
    const double d = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size()) {
      return Status::InvalidArgument("invalid number: " + text);
    }
    return JsonValue(d);
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) return Status::InvalidArgument("expected '\"'");
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ == end_) return Status::InvalidArgument("bad escape at end");
      char e = *p_++;
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
          if (end_ - p_ < 4) return Status::InvalidArgument("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Status::InvalidArgument("bad \\u escape digit");
          }
          // Encode as UTF-8 (basic multilingual plane only; surrogate pairs
          // are not needed for Crayfish payloads).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::InvalidArgument("unknown escape");
      }
    }
    if (!Consume('"')) return Status::InvalidArgument("unterminated string");
    return out;
  }

  StatusOr<JsonValue> ParseArray() {
    Consume('[');
    JsonValue::Array arr;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(arr));
    for (;;) {
      CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      arr.push_back(std::move(v));
      SkipWhitespace();
      if (Consume(']')) break;
      if (!Consume(',')) {
        return Status::InvalidArgument("expected ',' or ']' in array");
      }
    }
    return JsonValue(std::move(arr));
  }

  StatusOr<JsonValue> ParseObject() {
    Consume('{');
    JsonValue::Object obj;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(obj));
    for (;;) {
      SkipWhitespace();
      CRAYFISH_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Status::InvalidArgument("expected ':' in object");
      }
      CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
      obj[std::move(key)] = std::move(v);
      SkipWhitespace();
      if (Consume('}')) break;
      if (!Consume(',')) {
        return Status::InvalidArgument("expected ',' or '}' in object");
      }
    }
    return JsonValue(std::move(obj));
  }

  const char* p_;
  const char* end_;
};

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
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
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

size_t JsonValue::size() const {
  switch (type_) {
    case Type::kArray:
      return array_.size();
    case Type::kObject:
      return object_.size();
    default:
      return 0;
  }
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::string pad(pretty ? static_cast<size_t>(indent * (depth + 1)) : 0,
                        ' ');
  const std::string closing_pad(
      pretty ? static_cast<size_t>(indent * depth) : 0, ' ');
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendNumber(out, number_);
      break;
    case Type::kString:
      out->append(JsonEscape(string_));
      break;
    case Type::kArray: {
      if (array_.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out->push_back(',');
        first = false;
        if (pretty) {
          out->push_back('\n');
          out->append(pad);
        }
        v.DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        out->push_back('\n');
        out->append(closing_pad);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        if (pretty) {
          out->push_back('\n');
          out->append(pad);
        }
        out->append(JsonEscape(k));
        out->push_back(':');
        if (pretty) out->push_back(' ');
        v.DumpTo(out, indent, depth + 1);
      }
      if (pretty) {
        out->push_back('\n');
        out->append(closing_pad);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser parser(text.data(), text.data() + text.size());
  return parser.ParseDocument();
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

}  // namespace crayfish
