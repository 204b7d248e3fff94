#include "obs/format.h"

#include <charconv>
#include <system_error>

#include "common/logging.h"

namespace crayfish::obs {

namespace {

// Longest "%.*f" text the exports can ask for: sign, the 309 integer digits
// of DBL_MAX, the point and up to kMaxPrecision decimals.
constexpr int kMaxPrecision = 17;
constexpr size_t kNumberBufferBytes = 1 + 309 + 1 + kMaxPrecision;

void AppendChars(std::string* out, const char* first, std::to_chars_result r) {
  CRAYFISH_CHECK(r.ec == std::errc());
  out->append(first, static_cast<size_t>(r.ptr - first));
}

}  // namespace

void AppendFixed(std::string* out, double v, int precision) {
  CRAYFISH_CHECK(precision >= 0 && precision <= kMaxPrecision);
  char buf[kNumberBufferBytes];
  AppendChars(out, buf,
              std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::fixed, precision));
}

void AppendG9(std::string* out, double v) {
  char buf[kNumberBufferBytes];
  AppendChars(out, buf,
              std::to_chars(buf, buf + sizeof(buf), v,
                            std::chars_format::general, 9));
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[20];
  AppendChars(out, buf, std::to_chars(buf, buf + sizeof(buf), v));
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      out->append("\\n");
    } else if (byte < 0x20) {
      out->append("\\u00");
      out->push_back(kHex[byte >> 4]);
      out->push_back(kHex[byte & 0xF]);
    } else {
      out->push_back(c);
    }
  }
}

void AppendCsvQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace crayfish::obs
