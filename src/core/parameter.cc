#include "core/parameter.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace atune {

std::string ParamValueToString(const ParamValue& value) {
  struct Visitor {
    std::string operator()(int64_t v) const {
      return StrFormat("%lld", static_cast<long long>(v));
    }
    std::string operator()(double v) const { return DoubleToString(v); }
    std::string operator()(bool v) const { return v ? "true" : "false"; }
    std::string operator()(const std::string& v) const { return v; }
  };
  return std::visit(Visitor{}, value);
}

ParameterDef ParameterDef::Int(std::string name, int64_t min, int64_t max,
                               int64_t default_value, std::string description,
                               bool log_scale, std::string unit) {
  assert(min <= max && default_value >= min && default_value <= max);
  ParameterDef def;
  def.name_ = std::move(name);
  def.description_ = std::move(description);
  def.unit_ = std::move(unit);
  def.type_ = ParamType::kInt;
  def.log_scale_ = log_scale && min > 0;
  def.min_int_ = min;
  def.max_int_ = max;
  def.default_value_ = default_value;
  return def;
}

ParameterDef ParameterDef::Double(std::string name, double min, double max,
                                  double default_value,
                                  std::string description, bool log_scale,
                                  std::string unit) {
  assert(min <= max && default_value >= min && default_value <= max);
  ParameterDef def;
  def.name_ = std::move(name);
  def.description_ = std::move(description);
  def.unit_ = std::move(unit);
  def.type_ = ParamType::kDouble;
  def.log_scale_ = log_scale && min > 0.0;
  def.min_double_ = min;
  def.max_double_ = max;
  def.default_value_ = default_value;
  return def;
}

ParameterDef ParameterDef::Bool(std::string name, bool default_value,
                                std::string description) {
  ParameterDef def;
  def.name_ = std::move(name);
  def.description_ = std::move(description);
  def.type_ = ParamType::kBool;
  def.default_value_ = default_value;
  return def;
}

ParameterDef ParameterDef::Categorical(std::string name,
                                       std::vector<std::string> categories,
                                       size_t default_index,
                                       std::string description) {
  assert(!categories.empty() && default_index < categories.size());
  ParameterDef def;
  def.name_ = std::move(name);
  def.description_ = std::move(description);
  def.type_ = ParamType::kCategorical;
  def.default_value_ = categories[default_index];
  def.categories_ = std::move(categories);
  return def;
}

Status ParameterDef::Validate(const ParamValue& value) const {
  switch (type_) {
    case ParamType::kInt: {
      const int64_t* v = std::get_if<int64_t>(&value);
      if (v == nullptr) {
        return Status::InvalidArgument(
            StrFormat("parameter '%s' expects int", name_.c_str()));
      }
      if (*v < min_int_ || *v > max_int_) {
        return Status::OutOfRange(StrFormat(
            "parameter '%s' = %lld outside [%lld, %lld]", name_.c_str(),
            static_cast<long long>(*v), static_cast<long long>(min_int_),
            static_cast<long long>(max_int_)));
      }
      return Status::OK();
    }
    case ParamType::kDouble: {
      const double* v = std::get_if<double>(&value);
      if (v == nullptr) {
        return Status::InvalidArgument(
            StrFormat("parameter '%s' expects double", name_.c_str()));
      }
      if (*v < min_double_ || *v > max_double_ || std::isnan(*v)) {
        return Status::OutOfRange(
            StrFormat("parameter '%s' = %g outside [%g, %g]", name_.c_str(),
                      *v, min_double_, max_double_));
      }
      return Status::OK();
    }
    case ParamType::kBool: {
      if (std::get_if<bool>(&value) == nullptr) {
        return Status::InvalidArgument(
            StrFormat("parameter '%s' expects bool", name_.c_str()));
      }
      return Status::OK();
    }
    case ParamType::kCategorical: {
      const std::string* v = std::get_if<std::string>(&value);
      if (v == nullptr) {
        return Status::InvalidArgument(
            StrFormat("parameter '%s' expects category string", name_.c_str()));
      }
      if (std::find(categories_.begin(), categories_.end(), *v) ==
          categories_.end()) {
        return Status::OutOfRange(StrFormat(
            "parameter '%s': unknown category '%s'", name_.c_str(), v->c_str()));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown parameter type");
}

double ParameterDef::Normalize(const ParamValue& value) const {
  switch (type_) {
    case ParamType::kInt: {
      double v = static_cast<double>(std::get<int64_t>(value));
      double lo = static_cast<double>(min_int_);
      double hi = static_cast<double>(max_int_);
      if (hi <= lo) return 0.5;
      if (log_scale_) {
        return (std::log(v) - std::log(lo)) / (std::log(hi) - std::log(lo));
      }
      return (v - lo) / (hi - lo);
    }
    case ParamType::kDouble: {
      double v = std::get<double>(value);
      if (max_double_ <= min_double_) return 0.5;
      if (log_scale_) {
        return (std::log(v) - std::log(min_double_)) /
               (std::log(max_double_) - std::log(min_double_));
      }
      return (v - min_double_) / (max_double_ - min_double_);
    }
    case ParamType::kBool:
      return std::get<bool>(value) ? 1.0 : 0.0;
    case ParamType::kCategorical: {
      const std::string& v = std::get<std::string>(value);
      auto it = std::find(categories_.begin(), categories_.end(), v);
      size_t idx = it == categories_.end()
                       ? 0
                       : static_cast<size_t>(it - categories_.begin());
      if (categories_.size() <= 1) return 0.5;
      return static_cast<double>(idx) /
             static_cast<double>(categories_.size() - 1);
    }
  }
  return 0.0;
}

ParamValue ParameterDef::Denormalize(double u) const {
  u = std::clamp(u, 0.0, 1.0);
  switch (type_) {
    case ParamType::kInt: {
      double lo = static_cast<double>(min_int_);
      double hi = static_cast<double>(max_int_);
      double v;
      if (log_scale_) {
        v = std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
      } else {
        v = lo + u * (hi - lo);
      }
      int64_t iv = static_cast<int64_t>(std::llround(v));
      return std::clamp(iv, min_int_, max_int_);
    }
    case ParamType::kDouble: {
      double v;
      if (log_scale_) {
        v = std::exp(std::log(min_double_) +
                     u * (std::log(max_double_) - std::log(min_double_)));
      } else {
        v = min_double_ + u * (max_double_ - min_double_);
      }
      return std::clamp(v, min_double_, max_double_);
    }
    case ParamType::kBool:
      return u >= 0.5;
    case ParamType::kCategorical: {
      size_t n = categories_.size();
      size_t idx = static_cast<size_t>(
          std::llround(u * static_cast<double>(n - 1)));
      if (idx >= n) idx = n - 1;
      return categories_[idx];
    }
  }
  return 0.0;
}

}  // namespace atune
