#include "common/cli.h"

#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace falvolt::common {

namespace {

// Shortest round-trip formatting: the fewest significant digits whose
// std::stod gives back the exact registered double (the default ostream
// precision of 6 silently truncated defaults like 1e-7 or 0.1234567,
// while a flat max_digits10 would print 0.3 as 0.29999999999999999).
std::string format_double(double v) {
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    // stod throws out_of_range for subnormals (strtod sets ERANGE) —
    // treat that as "no round-trip at this precision", not a crash.
    try {
      if (std::stod(os.str()) == v) return os.str();
    } catch (const std::exception&) {
    }
  }
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

CliFlags::CliFlags(std::string program) : program_(std::move(program)) {}

void CliFlags::add_int(const std::string& name, long long def,
                       const std::string& help) {
  const std::string text = std::to_string(def);
  flags_[name] = Flag{Type::kInt, text, text, help};
}

void CliFlags::add_double(const std::string& name, double def,
                          const std::string& help) {
  const std::string text = format_double(def);
  flags_[name] = Flag{Type::kDouble, text, text, help};
}

void CliFlags::add_string(const std::string& name, const std::string& def,
                          const std::string& help) {
  flags_[name] = Flag{Type::kString, def, def, help};
}

void CliFlags::add_bool(const std::string& name, bool def,
                        const std::string& help) {
  const std::string text = def ? "true" : "false";
  flags_[name] = Flag{Type::kBool, text, text, help};
}

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    Flag& f = it->second;
    if (f.type == Type::kBool && !has_value) {
      // Accept the two-token form `--flag false` / `--flag true`; any
      // other following token leaves the switch semantics intact (the
      // token is NOT consumed, so `--fast --epochs 3` still works).
      if (i + 1 < argc && (std::string(argv[i + 1]) == "true" ||
                           std::string(argv[i + 1]) == "false")) {
        f.value = argv[++i];
      } else {
        f.value = "true";
      }
      continue;
    }
    if (!has_value) {
      // A following token that is itself a flag means the value was
      // forgotten — consuming it would silently swallow that flag (e.g.
      // `--json --fast` turning "--fast" into a file name).
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        throw std::invalid_argument("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    // Validate numeric flags eagerly so errors point at the flag.
    try {
      if (f.type == Type::kInt) (void)std::stoll(value);
      if (f.type == Type::kDouble) (void)std::stod(value);
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + name +
                                  " has a malformed value: " + value);
    }
    if (f.type == Type::kBool && value != "true" && value != "false") {
      throw std::invalid_argument("flag --" + name +
                                  " expects true/false, got: " + value);
    }
    f.value = value;
  }
  return true;
}

bool CliFlags::parse_or_exit(int argc, const char* const* argv) {
  try {
    return parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s (see --help)\n", program_.c_str(), e.what());
    std::exit(2);
  }
}

const CliFlags::Flag& CliFlags::find(const std::string& name,
                                     Type type) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("flag not registered: --" + name);
  }
  if (it->second.type != type) {
    throw std::invalid_argument("flag type mismatch for --" + name);
  }
  return it->second;
}

long long CliFlags::get_int(const std::string& name) const {
  return std::stoll(find(name, Type::kInt).value);
}

double CliFlags::get_double(const std::string& name) const {
  return std::stod(find(name, Type::kDouble).value);
}

const std::string& CliFlags::get_string(const std::string& name) const {
  return find(name, Type::kString).value;
}

bool CliFlags::get_bool(const std::string& name) const {
  return find(name, Type::kBool).value == "true";
}

std::vector<std::pair<std::string, std::string>> CliFlags::items() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(flags_.size());
  for (const auto& [name, f] : flags_) out.emplace_back(name, f.value);
  return out;  // flags_ is an ordered map: already sorted by name
}

std::string CliFlags::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [flags]\n";
  for (const auto& [name, f] : flags_) {
    os << "  --" << name << " (default " << f.def << "): " << f.help << "\n";
  }
  return os.str();
}

}  // namespace falvolt::common
