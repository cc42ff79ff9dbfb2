// Copyright (c) 2026 The plastream Authors. MIT license.

#include "transport/transport.h"

#include <algorithm>
#include <utility>

namespace plastream {

namespace {

// The default transport: a marker that keeps every stream archiving in
// process. It never opens links — the Pipeline checks remote() and
// short-circuits.
class InprocTransport final : public Transport {
 public:
  bool remote() const override { return false; }
  Status Connect(std::string_view) override { return Status::OK(); }
  Result<std::unique_ptr<TransportLink>> OpenLink(std::string_view,
                                                  uint16_t) override {
    return Status::FailedPrecondition(
        "the inproc transport keeps streams in-process; links are a "
        "remote-transport concept");
  }
  Status Flush() override { return Status::OK(); }
  TransportStats GetStats() const override { return TransportStats{}; }
  std::string_view name() const override { return "inproc"; }
};

}  // namespace

TransportRegistry& TransportRegistry::Global() {
  static TransportRegistry* registry = [] {
    auto* r = new TransportRegistry();
    RegisterBuiltinTransports(*r);
    return r;
  }();
  return *registry;
}

Status TransportRegistry::Register(std::string name, Factory factory) {
  if (name.empty()) {
    return Status::InvalidArgument("transport name must be non-empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("transport factory must be non-null");
  }
  const auto [it, inserted] = factories_.emplace(std::move(name),
                                                std::move(factory));
  if (!inserted) {
    return Status::FailedPrecondition("transport '" + it->first +
                                      "' is already registered");
  }
  return Status::OK();
}

Result<std::unique_ptr<Transport>> TransportRegistry::MakeTransport(
    const FilterSpec& spec) const {
  if (!spec.options.epsilon.empty() || spec.options.max_lag != 0) {
    return Status::InvalidArgument(
        "transport spec '" + spec.Format() +
        "' carries filter options (eps/dims/max_lag), which have no "
        "meaning for a transport");
  }
  const auto it = factories_.find(spec.family);
  if (it == factories_.end()) {
    std::string known;
    for (const std::string& name : ListTransports()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    return Status::NotFound("no transport '" + spec.family +
                            "' is registered (known: " + known + ")");
  }
  return it->second(spec);
}

Result<std::unique_ptr<Transport>> TransportRegistry::MakeTransport(
    std::string_view spec_text) const {
  PLASTREAM_ASSIGN_OR_RETURN(const FilterSpec spec,
                             FilterSpec::Parse(spec_text));
  return MakeTransport(spec);
}

std::vector<std::string> TransportRegistry::ListTransports() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

bool TransportRegistry::Contains(std::string_view name) const {
  return factories_.find(name) != factories_.end();
}

void RegisterInprocTransport(TransportRegistry& registry) {
  const Status status = registry.Register(
      "inproc", [](const FilterSpec& spec)
                    -> Result<std::unique_ptr<Transport>> {
        PLASTREAM_RETURN_NOT_OK(spec.ExpectParamsIn({}));
        return std::unique_ptr<Transport>(new InprocTransport());
      });
  (void)status;  // double registration is a startup bug, not a runtime one
}

void RegisterBuiltinTransports(TransportRegistry& registry) {
  RegisterInprocTransport(registry);
  RegisterNetTransports(registry);
}

}  // namespace plastream
