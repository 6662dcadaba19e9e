// Small string utilities shared by the parsers and report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mp {

std::vector<std::string> split(std::string_view s, char sep);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string rpad(std::string s, size_t width);

}  // namespace mp
