#pragma once
// Environment-variable knobs shared by benches and tests.

#include <string>

namespace falvolt::common {

/// True when FALVOLT_FAST is set to a truthy value ("1", "true", "yes").
/// Benches use this to shrink datasets / epochs ~4x for smoke runs.
bool fast_mode();

/// Integer environment variable with a default (malformed -> default).
long long env_int_or(const std::string& name, long long def);

}  // namespace falvolt::common
