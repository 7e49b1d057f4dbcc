#include "common/env.h"

#include <cstdlib>

namespace falvolt::common {

bool fast_mode() {
  const char* env = std::getenv("FALVOLT_FAST");
  const std::string v = env ? env : "";
  return v == "1" || v == "true" || v == "yes";
}

long long env_int_or(const std::string& name, long long def) {
  const char* v = std::getenv(name.c_str());
  if (!v) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end && *end == '\0') ? parsed : def;
}

}  // namespace falvolt::common
