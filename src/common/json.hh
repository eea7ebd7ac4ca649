/**
 * @file
 * JSON string escaping, shared by the exporters and occamy-serve.
 */

#ifndef OCCAMY_COMMON_JSON_HH
#define OCCAMY_COMMON_JSON_HH

#include <string>

namespace occamy
{

/** JSON string contents (no surrounding quotes): quotes and
 *  backslashes escaped, \n \r \t in their short form, every other
 *  control character as \u00XX. */
inline std::string
jsonEscape(const std::string &s)
{
    constexpr char hex[] = "0123456789abcdef";
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
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace occamy

#endif // OCCAMY_COMMON_JSON_HH
