#include "core/parameter_space.h"

#include <algorithm>

#include "common/string_util.h"

namespace atune {

Status ParameterSpace::Add(ParameterDef def) {
  if (index_.find(def.name()) != index_.end()) {
    return Status::InvalidArgument(
        StrFormat("duplicate parameter '%s'", def.name().c_str()));
  }
  index_[def.name()] = params_.size();
  params_.push_back(std::move(def));
  return Status::OK();
}

Result<const ParameterDef*> ParameterSpace::Find(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound(
        StrFormat("unknown parameter '%s'", name.c_str()));
  }
  return &params_[it->second];
}

Status ParameterSpace::ValidateConfiguration(
    const Configuration& config) const {
  for (const ParameterDef& def : params_) {
    ATUNE_ASSIGN_OR_RETURN(ParamValue v, config.Get(def.name()));
    ATUNE_RETURN_IF_ERROR(def.Validate(v));
  }
  for (const auto& [name, value] : config.values()) {
    (void)value;
    if (index_.find(name) == index_.end()) {
      return Status::InvalidArgument(
          StrFormat("configuration sets unknown parameter '%s'", name.c_str()));
    }
  }
  return Status::OK();
}

Configuration ParameterSpace::DefaultConfiguration() const {
  Configuration config;
  for (const ParameterDef& def : params_) {
    config.Set(def.name(), def.default_value());
  }
  return config;
}

Configuration ParameterSpace::RandomConfiguration(Rng* rng) const {
  Configuration config;
  for (const ParameterDef& def : params_) {
    config.Set(def.name(), def.Denormalize(rng->Uniform()));
  }
  return config;
}

Vec ParameterSpace::ToUnitVector(const Configuration& config) const {
  Vec u(params_.size(), 0.0);
  for (size_t i = 0; i < params_.size(); ++i) {
    auto v = config.Get(params_[i].name());
    u[i] = params_[i].Normalize(v.ok() ? *v : params_[i].default_value());
  }
  return u;
}

Configuration ParameterSpace::FromUnitVector(const Vec& u) const {
  Configuration config;
  for (size_t i = 0; i < params_.size(); ++i) {
    double x = i < u.size() ? u[i] : 0.5;
    config.Set(params_[i].name(), params_[i].Denormalize(x));
  }
  return config;
}

Configuration ParameterSpace::Neighbor(const Configuration& config,
                                       double sigma, Rng* rng) const {
  Vec u = ToUnitVector(config);
  for (double& x : u) {
    x = std::clamp(x + rng->Normal(0.0, sigma), 0.0, 1.0);
  }
  return FromUnitVector(u);
}

}  // namespace atune
