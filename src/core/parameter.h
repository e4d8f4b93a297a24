#ifndef ATUNE_CORE_PARAMETER_H_
#define ATUNE_CORE_PARAMETER_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace atune {

/// The value of one configuration parameter.
using ParamValue = std::variant<int64_t, double, bool, std::string>;

/// Parameter value domains.
enum class ParamType {
  kInt,          ///< integer range [min_int, max_int]
  kDouble,       ///< real range [min_double, max_double]
  kBool,         ///< true/false
  kCategorical,  ///< one of a fixed set of strings
};

/// Renders a ParamValue as text ("64", "0.75", "true", "snappy").
std::string ParamValueToString(const ParamValue& value);

/// Definition of one tunable configuration parameter: its domain, default,
/// and normalization behavior. Mirrors what a DBMS/Hadoop/Spark config page
/// documents for a knob.
class ParameterDef {
 public:
  /// Integer-valued parameter in [min, max].
  static ParameterDef Int(std::string name, int64_t min, int64_t max,
                          int64_t default_value, std::string description = "",
                          bool log_scale = false, std::string unit = "");

  /// Real-valued parameter in [min, max].
  static ParameterDef Double(std::string name, double min, double max,
                             double default_value,
                             std::string description = "",
                             bool log_scale = false, std::string unit = "");

  /// Boolean parameter.
  static ParameterDef Bool(std::string name, bool default_value,
                           std::string description = "");

  /// Categorical parameter; default_index must be < categories.size().
  static ParameterDef Categorical(std::string name,
                                  std::vector<std::string> categories,
                                  size_t default_index,
                                  std::string description = "");

  const std::string& name() const { return name_; }
  const std::string& description() const { return description_; }
  const std::string& unit() const { return unit_; }
  ParamType type() const { return type_; }
  bool log_scale() const { return log_scale_; }

  int64_t min_int() const { return min_int_; }
  int64_t max_int() const { return max_int_; }
  double min_double() const { return min_double_; }
  double max_double() const { return max_double_; }
  const std::vector<std::string>& categories() const { return categories_; }

  ParamValue default_value() const { return default_value_; }

  /// True if `value` has the right variant alternative and is in range.
  Status Validate(const ParamValue& value) const;

  /// Maps a valid value to [0, 1] (log-scaled if configured).
  /// Bool: false=0, true=1. Categorical: index/(n-1), or 0.5 if n==1.
  double Normalize(const ParamValue& value) const;

  /// Inverse of Normalize: maps u in [0,1] (clamped) to a valid value,
  /// rounding integers and snapping categories.
  ParamValue Denormalize(double u) const;

 private:
  ParameterDef() = default;

  std::string name_;
  std::string description_;
  std::string unit_;
  ParamType type_ = ParamType::kDouble;
  bool log_scale_ = false;
  int64_t min_int_ = 0;
  int64_t max_int_ = 0;
  double min_double_ = 0.0;
  double max_double_ = 0.0;
  std::vector<std::string> categories_;
  ParamValue default_value_;
};

}  // namespace atune

#endif  // ATUNE_CORE_PARAMETER_H_
