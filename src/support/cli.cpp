#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace df::support {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      values_[arg] = "true";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  const auto it = values_.find(name);
  if (it != values_.end()) {
    consumed_[name] = true;
    return true;
  }
  return false;
}

std::string CliFlags::get(const std::string& name,
                          const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  consumed_[name] = true;
  return it->second;
}

std::int64_t CliFlags::get(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  consumed_[name] = true;
  const auto parsed = parse_int(it->second);
  DF_CHECK(parsed.has_value(), "flag --", name, " is not an integer");
  return *parsed;
}

std::uint64_t CliFlags::get(const std::string& name,
                            std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  consumed_[name] = true;
  const auto parsed = parse_uint(it->second);
  DF_CHECK(parsed.has_value(), "flag --", name,
           " is not an unsigned integer");
  return *parsed;
}

double CliFlags::get(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  consumed_[name] = true;
  const auto parsed = parse_double(it->second);
  DF_CHECK(parsed.has_value(), "flag --", name, " is not a number");
  return *parsed;
}

bool CliFlags::get(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  consumed_[name] = true;
  const auto parsed = parse_bool(it->second);
  DF_CHECK(parsed.has_value(), "flag --", name, " is not a boolean");
  return *parsed;
}

std::vector<std::string> CliFlags::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (consumed_.find(name) == consumed_.end()) {
      names.push_back(name);
    }
  }
  return names;
}

void CliFlags::reject_unused() const {
  const std::vector<std::string> names = unused();
  if (names.empty()) {
    return;
  }
  for (const std::string& name : names) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
  }
  std::exit(2);
}

}  // namespace df::support
