#pragma once
// Tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches
// (`--fast`). Unknown flags raise (parse) or exit 2 with one error line
// (parse_or_exit); `--help` prints registered flags.

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace falvolt::common {

/// Declarative CLI flag set.
///
///   CliFlags cli("fig7_mitigation");
///   cli.add_int("epochs", 8, "retraining epochs");
///   cli.add_bool("fast", false, "shrink workloads ~4x");
///   if (!cli.parse_or_exit(argc, argv)) return 0;
///   int epochs = cli.get_int("epochs");
class CliFlags {
 public:
  explicit CliFlags(std::string program);

  void add_int(const std::string& name, long long def,
               const std::string& help);
  void add_double(const std::string& name, double def, const std::string& help);
  void add_string(const std::string& name, const std::string& def,
                  const std::string& help);
  void add_bool(const std::string& name, bool def, const std::string& help);

  /// Parse argv. Returns false (after printing usage) if --help was given.
  /// Throws std::invalid_argument on unknown flags or malformed values.
  bool parse(int argc, const char* const* argv);

  /// parse() for a program's main(): an unknown flag or malformed value
  /// prints "<program>: <error> (see --help)" to stderr and exits 2
  /// instead of escaping as an exception.
  bool parse_or_exit(int argc, const char* const* argv);

  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Every registered flag as (name, canonical value), sorted by name.
  /// Values reflect the parsed command line (defaults where unset) in
  /// the same canonical text form usage() prints — the input the result
  /// store fingerprints a bench invocation by.
  std::vector<std::pair<std::string, std::string>> items() const;

  std::string usage() const;

 private:
  enum class Type { kInt, kDouble, kString, kBool };
  struct Flag {
    Type type;
    std::string value;  // canonical textual value (mutated by parse)
    std::string def;    // registered default, kept verbatim for usage()
    std::string help;
  };
  const Flag& find(const std::string& name, Type type) const;

  std::string program_;
  std::map<std::string, Flag> flags_;
};

}  // namespace falvolt::common
