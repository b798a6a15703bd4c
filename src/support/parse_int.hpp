/**
 * @file
 * The one strict unsigned-integer parser for flags, query parameters
 * and fault specs.
 *
 * Accepts exactly the decimal digits of a value that fits in T: no sign,
 * no whitespace, no trailing text, no wrap-around. strtoul accepts all
 * of " 1", "+1" and "-1" (the last as ULONG_MAX), and a cast to a
 * narrower type then truncates silently; this does neither.
 */

#ifndef GGA_SUPPORT_PARSE_INT_HPP
#define GGA_SUPPORT_PARSE_INT_HPP

#include <charconv>
#include <concepts>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

#include "support/log.hpp"

namespace gga {

/** @p text as a T, or nullopt unless it is all digits and fits in T. */
template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
std::optional<T>
parseUnsigned(std::string_view text)
{
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return value;
}

/** Command-line form of parseUnsigned: fatal, naming @p flag, on garbage. */
template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
T
parseUnsignedFlag(const char* flag, std::string_view text)
{
    const std::optional<T> value = parseUnsigned<T>(text);
    if (!value)
        GGA_FATAL(flag, " wants an integer in [0, ",
                  std::numeric_limits<T>::max(), "], got '", text, "'");
    return *value;
}

} // namespace gga

#endif // GGA_SUPPORT_PARSE_INT_HPP
