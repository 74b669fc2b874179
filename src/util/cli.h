// Command-line argument parsing for examples and benchmark harnesses.
//
// Supports `--name value`, `--name=value`, boolean flags `--flag`, and
// automatically generated --help text. Unknown options are an error so typos
// in experiment parameters fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/result.h"

namespace grefar {

class CliParser {
 public:
  /// `program` and `description` appear in --help output.
  CliParser(std::string program, std::string description);

  /// Registers an option with a default value shown in --help.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Registers a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. On `--help` prints usage and returns an Error whose message
  /// is "help" (callers typically exit 0 on it). Unknown options fail.
  Status parse(int argc, const char* const* argv);

  /// True if `name` was registered as an option or flag.
  bool has_option(const std::string& name) const {
    return find_option(name) != nullptr;
  }

  /// Typed getters (after parse). Contract-checked: the option must have been
  /// registered. Numeric getters fail the program on malformed values.
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Comma-separated list of doubles ("0.1,2.5,7.5,20").
  std::vector<double> get_double_list(const std::string& name) const;

  /// Renders the --help text.
  std::string usage() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::vector<std::pair<std::string, Option>> options_;  // declaration order
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> flags_;

  const Option* find_option(const std::string& name) const;
};

}  // namespace grefar
