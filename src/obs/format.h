#ifndef CRAYFISH_OBS_FORMAT_H_
#define CRAYFISH_OBS_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace crayfish::obs {

// Text formatting shared by the obs exports. Every function appends to
// `out` in place, so an export writes all of its bytes into one buffer
// without temporaries. Doubles go through std::to_chars, whose output the
// standard defines to equal printf's for the same conversion and precision
// in the "C" locale: the exports stay byte-stable and locale-independent.

/// Appends `v` exactly as printf("%.*f", precision, v) writes it.
void AppendFixed(std::string* out, double v, int precision);

/// Appends `v` exactly as printf("%.9g", v) writes it.
void AppendG9(std::string* out, double v);

/// Appends `v` in decimal.
void AppendUint(std::string* out, uint64_t v);

/// Appends `s` escaped for the inside of a JSON string literal: `"` and `\`
/// get a backslash, '\n' becomes `\n`, and every other byte below 0x20
/// becomes `\u00xx` (RFC 8259 §7).
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Appends `s` as one RFC 4180 CSV cell in double quotes, doubling every
/// embedded quote.
void AppendCsvQuoted(std::string* out, std::string_view s);

}  // namespace crayfish::obs

#endif  // CRAYFISH_OBS_FORMAT_H_
