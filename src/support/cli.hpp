// Minimal command-line flag parser for bench and example binaries.
//
// Flags take the form --name=value; bare --name sets a boolean flag to
// true (the ambiguous "--name value" form is deliberately not supported so
// booleans and positionals cannot swallow each other). Every binary calls
// reject_unused() once it has read its flags, so a typo or a retired flag
// in a sweep script fails loudly instead of silently using defaults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace df::support {

class CliFlags {
 public:
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get(const std::string& name, std::int64_t fallback) const;
  std::uint64_t get(const std::string& name, std::uint64_t fallback) const;
  double get(const std::string& name, double fallback) const;
  bool get(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names that were provided but never read; used to reject typos.
  std::vector<std::string> unused() const;

  /// Prints every provided-but-unread flag to stderr and exits with status
  /// 2 if there is one; returns normally otherwise. Call after the last
  /// get()/has() and before doing any work.
  void reject_unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace df::support
