// Minimal command-line flag parsing shared by benches and examples.
//
// Flags are `--name value` or `--name=value`; `--help` prints registered
// flags. Unknown flags are an error so typos don't silently fall back to
// defaults in benchmark runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fastz {

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  // Register flags before parse(). Default values double as documentation.
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value);

  // Returns false (after printing help) if --help was requested.
  // Throws std::invalid_argument on unknown flags or missing values.
  bool parse(int argc, const char* const* argv);

  // parse() for a main(): returns the code main should exit with now — 0
  // after --help, 2 after printing the error and the usage to stderr — or
  // std::nullopt to carry on:
  //   if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  std::optional<int> parse_or_exit(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;  // "1"/"true"/"yes" => true

  std::string help() const;

 private:
  struct Flag {
    std::string help;
    std::string value;
  };

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace fastz
