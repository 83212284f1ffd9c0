#include "util/cli.hpp"

#include <iostream>
#include <sstream>
#include <stdexcept>

namespace fastz {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_flag(const std::string& name, const std::string& help,
                         const std::string& default_value) {
  if (flags_.contains(name)) throw std::invalid_argument("duplicate flag: " + name);
  flags_[name] = Flag{help, default_value};
  order_.push_back(name);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for --" + arg);
      value = argv[++i];
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) throw std::invalid_argument("unknown flag: --" + arg);
    it->second.value = value;
  }
  return true;
}

std::optional<int> CliParser::parse_or_exit(int argc, const char* const* argv) {
  try {
    if (!parse(argc, argv)) return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n\n" << help();
    return 2;
  }
  return std::nullopt;
}

std::string CliParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) throw std::invalid_argument("unregistered flag: " + name);
  return it->second.value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return std::stoll(get(name));
}

double CliParser::get_double(const std::string& name) const {
  return std::stod(get(name));
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::string CliParser::help() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.value << ")\n      " << f.help << '\n';
  }
  return os.str();
}

}  // namespace fastz
