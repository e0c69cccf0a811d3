// Minimal command-line flag parser for the tools and examples.
//
// Supports `--name value` and `--name=value` forms plus boolean switches
// (`--flag`).  Unknown flags are collected so callers can reject them with
// a helpful message; positional arguments are preserved in order.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace delta {

/// `text` as a base-10 integer in [lo, hi]; nullopt when it is not one
/// whole integer (empty, trailing characters, overflow) or out of range.
inline std::optional<std::int64_t> parse_int_in(std::string_view text, std::int64_t lo,
                                                std::int64_t hi) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

/// parse_int_in for command-line input: the value, or else a message naming
/// `what` (a flag such as "--epochs", or an environment variable) on stderr
/// and exit code 2.
inline std::int64_t int_in_or_exit(const std::string& what, const std::string& text,
                                   std::int64_t lo, std::int64_t hi) {
  const std::optional<std::int64_t> v = parse_int_in(text, lo, hi);
  if (!v) {
    std::fprintf(stderr, "%s expects an integer in [%lld, %lld], got '%s'\n",
                 what.c_str(), static_cast<long long>(lo), static_cast<long long>(hi),
                 text.c_str());
    std::exit(2);
  }
  return *v;
}

/// `text` as a decimal floating-point number in [lo, hi]; nullopt when it is
/// not one whole number (empty, trailing characters) or out of range (NaN
/// and infinities never are in range).
inline std::optional<double> parse_double_in(std::string_view text, double lo,
                                             double hi) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) return std::nullopt;
  return v;
}

class ArgParser {
 public:
  ArgParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        a = a.substr(2);
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
          flags_[a.substr(0, eq)] = a.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[a] = argv[++i];
        } else {
          flags_[a] = "";  // Boolean switch.
        }
        order_.push_back(a.substr(0, eq == std::string::npos ? a.size() : eq));
      } else {
        positional_.push_back(std::move(a));
      }
    }
  }

  bool has(const std::string& name) const { return flags_.contains(name); }

  std::string get(const std::string& name, const std::string& def = "") const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
  }

  std::int64_t get_int(const std::string& name, std::int64_t def) const {
    auto it = flags_.find(name);
    if (it == flags_.end() || it->second.empty()) return def;
    return std::stoll(it->second);
  }

  /// Range-checked get_int for command-line tools: `def` when the flag is
  /// absent, else its value, which must be an integer in [lo, hi].  Any
  /// other value prints a message to stderr and exits with code 2.
  std::int64_t get_int_in(const std::string& name, std::int64_t def, std::int64_t lo,
                          std::int64_t hi) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? def : int_in_or_exit("--" + name, it->second, lo, hi);
  }

  double get_double(const std::string& name, double def) const {
    auto it = flags_.find(name);
    if (it == flags_.end() || it->second.empty()) return def;
    return std::stod(it->second);
  }

  /// Range-checked get_double, with get_int_in's contract: `def` when the
  /// flag is absent, else a number in [lo, hi], else a message and exit 2.
  double get_double_in(const std::string& name, double def, double lo, double hi) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) return def;
    const std::optional<double> v = parse_double_in(it->second, lo, hi);
    if (!v) {
      std::fprintf(stderr, "--%s expects a number in [%g, %g], got '%s'\n", name.c_str(),
                   lo, hi, it->second.c_str());
      std::exit(2);
    }
    return *v;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that are not in `known` — for strict validation.
  std::vector<std::string> unknown_flags(const std::vector<std::string>& known) const {
    std::vector<std::string> out;
    for (const auto& name : order_) {
      bool ok = false;
      for (const auto& k : known) ok |= (k == name);
      if (!ok) out.push_back(name);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

}  // namespace delta
